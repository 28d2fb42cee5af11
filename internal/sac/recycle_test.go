package sac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// recycleDim is long enough for TCPMesh's free list to keep the
// vectors (transport.minRecycle is 8192 floats).
const recycleDim = 9001

func copyModels(models [][]float64) [][]float64 {
	out := make([][]float64, len(models))
	for i, m := range models {
		out[i] = append([]float64(nil), m...)
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRecyclingBitIdenticalAcrossFabrics is the payload-ownership
// contract seen from the protocol: the engine recycles every share it
// has summed and every subtotal the leader has averaged, and across
// consecutive rounds on one TCPMesh — whose receives land in exactly
// those recycled vectors — each result stays bit-identical to the same
// rounds on the in-memory Mesh. A recycled vector showing up in
// Result.Avg, in a payload the caller still holds, in a sender's share
// block or in a model would break the identity (and under -race, where
// Recycle poisons with NaNs, break it on the first round).
func TestRecyclingBitIdenticalAcrossFabrics(t *testing.T) {
	const rounds = 4
	for _, mode := range []struct {
		name    string
		cfg     Config
		bounded bool
		crash   func(round int) CrashPlan
	}{
		{name: "leader", cfg: Config{N: 4, K: 4, Leader: 2, Mode: ModeLeader}},
		{name: "broadcast", cfg: Config{N: 4, K: 4, Mode: ModeBroadcast}},
		{name: "kofn-crash-recovery", cfg: Config{N: 6, K: 3, Leader: 0, Mode: ModeLeader},
			crash: func(round int) CrashPlan {
				// One more peer drops after sharing each round; K = 3 of 6
				// tolerates all three, and crashed peers stay down.
				if round < 3 {
					return CrashPlan{round + 1: AfterShares}
				}
				return nil
			}},
		{name: "guarded", bounded: true, cfg: Config{N: 5, K: 3, Leader: 1, Mode: ModeLeader,
			Guard:     &Guard{ShareBound: 4, CrossCheck: true},
			Adversary: AdversaryPlan{3: ByzInflateSubtotal}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			n := mode.cfg.N
			tcp, err := transport.NewTCPMesh(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tcp.Close()
			mem := transport.NewMesh(n, nil)

			// A model-sized payload the caller drains and keeps for the
			// whole test: never recycled, so never to be touched.
			keep := randModels(rand.New(rand.NewSource(99)), 1, recycleDim)[0]
			if err := tcp.Send(transport.Message{From: 1, To: 0, Kind: "test/held", Payload: keep}); err != nil {
				t.Fatal(err)
			}
			heldMsgs, err := tcp.Drain(0)
			if err != nil || len(heldMsgs) != 1 {
				t.Fatalf("drained %d messages (err %v)", len(heldMsgs), err)
			}
			held := heldMsgs[0].Payload

			tcpCfg, memCfg := mode.cfg, mode.cfg
			tcpCfg.Scratch, memCfg.Scratch = &Scratch{}, &Scratch{}
			tcpCfg.Rng, memCfg.Rng = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			src := rand.New(rand.NewSource(17))
			var avgs, avgCopies [][]float64 // every round's Result.Avg, and what it held on return
			for round := 0; round < rounds; round++ {
				var models [][]float64
				if mode.bounded {
					models = boundedModels(src, n, recycleDim, 4)
				} else {
					models = randModels(src, n, recycleDim)
				}
				pristine := copyModels(models)
				var crash CrashPlan
				if mode.crash != nil {
					crash = mode.crash(round)
				}
				got, err := Run(tcp, tcpCfg, models, crash)
				if err != nil {
					t.Fatalf("round %d over TCP: %v", round, err)
				}
				want, err := Run(mem, memCfg, copyModels(pristine), crash)
				if err != nil {
					t.Fatalf("round %d in memory: %v", round, err)
				}
				if !bitsEqual(got.Avg, want.Avg) {
					t.Fatalf("round %d: TCP average is not bit-identical to the in-memory one", round)
				}
				avgs, avgCopies = append(avgs, got.Avg), append(avgCopies, append([]float64(nil), got.Avg...))
				got.Avg, want.Avg = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: TCP result %+v, in-memory %+v", round, got, want)
				}
				for i := range models {
					if !bitsEqual(models[i], pristine[i]) {
						t.Fatalf("round %d: model %d was modified", round, i)
					}
				}
			}
			for round := range avgs {
				if !bitsEqual(avgs[round], avgCopies[round]) {
					t.Fatalf("round %d's Result.Avg changed under later rounds", round)
				}
			}
			if !bitsEqual(held, keep) {
				t.Fatal("a drained payload the caller still holds was overwritten")
			}
		})
	}
}
