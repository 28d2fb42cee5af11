package core

import (
	"math/rand"
	"testing"

	"repro/internal/sac"
	"repro/internal/telemetry"
)

// TestRejectedSpecCountsNothing: a RoundSpec that does not fit the
// system is the caller's error, found before the round counts anything —
// no bytes on the counter, no round/started — and never a round that
// runs as if the bad entry were not there, nor a subgroup SAC that fails
// on it and is dropped.
func TestRejectedSpecCountsNothing(t *testing.T) {
	models := func() [][]float64 { return randModels(rand.New(rand.NewSource(1)), 7, 4) }
	ragged := models()
	ragged[5] = ragged[5][:3]
	cases := []struct {
		name   string
		models [][]float64
		spec   RoundSpec
	}{
		{"model count", models()[:6], RoundSpec{}},
		{"ragged model", ragged, RoundSpec{}},
		{"sample counts", models(), RoundSpec{SampleCounts: []float64{1, 2}}},
		{"leader count", models(), RoundSpec{Leaders: []int{0, 0}}},
		{"leader out of its subgroup", models(), RoundSpec{Leaders: []int{0, 3, 0}}},
		{"negative leader", models(), RoundSpec{Leaders: []int{-1, 0, 0}}},
		{"negative FedAvg leader", models(), RoundSpec{FedLeader: -1}},
		{"FedAvg leader of no subgroup", models(), RoundSpec{FedLeader: 3}},
		{"crash plan for no subgroup", models(), RoundSpec{Crash: map[int]sac.CrashPlan{3: {0: sac.AfterShares}}}},
		{"crash plan for a peer out of its subgroup", models(), RoundSpec{Crash: map[int]sac.CrashPlan{2: {2: sac.AfterShares}}}},
		{"adversary plan for no subgroup", models(), RoundSpec{Adversary: map[int]sac.AdversaryPlan{-1: {0: sac.ByzPoisonScale}}}},
		{"adversary plan for a peer out of its subgroup", models(), RoundSpec{Adversary: map[int]sac.AdversaryPlan{1: {3: sac.ByzPoisonScale}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			sys, err := NewSystem(Config{Sizes: []int{3, 2, 2}, K: []int{2}, Telemetry: reg}, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if res, err := sys.AggregateRound(tc.models, tc.spec); err == nil {
				t.Fatalf("accepted, participated %v", res.Participated)
			}
			if b, started := sys.Counter().TotalBytes(), reg.Counter("round/started").Value(); b != 0 || started != 0 {
				t.Fatalf("a rejected round left %d bytes and round/started = %d", b, started)
			}
		})
	}
}
