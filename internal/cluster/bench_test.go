package cluster

import (
	"testing"

	"repro/internal/simnet"
)

// BenchmarkClusterVirtualSecond advances a bootstrapped, settled 5×5
// system — the failover workload's cluster — by one virtual second per
// iteration: 30 hosts ticking every virtual millisecond, heartbeats on
// six raft groups and a configuration commit every 50 ms. It is the
// handle for -cpuprofile/-memprofile on the bench ledger's
// cluster.runfor_ms row (DESIGN §4).
func BenchmarkClusterVirtualSecond(b *testing.B) {
	s, err := New(paperOpts(50, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Bootstrap(30 * simnet.Second); err != nil {
		b.Fatal(err)
	}
	s.Sim.RunFor(500 * simnet.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sim.RunFor(simnet.Second)
	}
}

// TestSettledSystemAllocationsPerVirtualSecond holds the benchmark's
// cluster to an allocation ceiling per virtual second. The ceiling sits
// between two measurements: 5,585 while a raft Ready handed its message
// slice away and an append copied its entries, and 602 since Ready
// reuses its buffers and an append carries a view of the log.
func TestSettledSystemAllocationsPerVirtualSecond(t *testing.T) {
	const ceiling = 1200
	s := mustBootstrap(t, paperOpts(50, 1))
	s.Sim.RunFor(500 * simnet.Millisecond)
	got := testing.AllocsPerRun(3, func() { s.Sim.RunFor(simnet.Second) })
	t.Logf("allocations per virtual second: %v", got)
	if got > ceiling {
		t.Fatalf("allocations per virtual second: %v, ceiling %d", got, ceiling)
	}
}
