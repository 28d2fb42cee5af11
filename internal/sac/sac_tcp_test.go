package sac

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// The SAC protocols run unchanged over real TCP sockets (the paper's
// deployment used gRPC between layers; transport.TCPMesh is this
// reproduction's socket fabric). Exact averages, exact byte accounting,
// identical fault tolerance.
func TestSACOverRealTCP(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n, dim = 5, 64
	models := randModels(r, n, dim)

	counter := transport.NewCounter()
	mesh, err := transport.NewTCPMesh(n, counter)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	res, err := Run(mesh, Config{N: n, K: n, Mode: ModeBroadcast, Rng: r}, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
		t.Fatalf("TCP SAC average off by %v", d)
	}
	// Cost formula holds over sockets too: 2N(N−1)|w|.
	want := int64(2*n*(n-1)) * int64(8*dim)
	if got := counter.TotalBytes(); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
}

func TestFaultTolerantSACOverRealTCP(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n, k, dim = 5, 3, 32
	models := randModels(r, n, dim)

	mesh, err := transport.NewTCPMesh(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// Two peers drop after sharing — the maximum k-out-of-n tolerates.
	crash := CrashPlan{2: AfterShares, 3: AfterShares}
	res, err := Run(mesh, Config{N: n, K: k, Leader: 0, Mode: ModeLeader, Rng: r}, models, crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contributors) != n {
		t.Fatalf("contributors = %v", res.Contributors)
	}
	if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
		t.Fatalf("TCP fault-tolerant SAC average off by %v", d)
	}
}
