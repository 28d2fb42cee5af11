package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestAggregateRoundDegraded: a subgroup flagged as quorumless is
// skipped — no SAC, no leader validation, no distribution bytes — and
// the round still aggregates the healthy subgroups exactly.
func TestAggregateRoundDegraded(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	reg := telemetry.New()
	sys, err := NewSystem(Config{Sizes: []int{3, 3, 3}, Telemetry: reg}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 9, 6)
	// Leader index 9 is out of range for a size-3 subgroup; because the
	// subgroup is degraded, it must not be validated (a quorumless
	// subgroup can legitimately report no leader).
	res, err := sys.AggregateRound(models, RoundSpec{
		Leaders:   []int{0, 9, 0},
		FedLeader: -1,
		Degraded:  []int{1, 1}, // duplicates collapse
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Degraded, []int{1}) {
		t.Fatalf("Degraded = %v, want [1]", res.Degraded)
	}
	if !reflect.DeepEqual(res.Participated, []int{0, 2}) {
		t.Fatalf("Participated = %v, want [0 2]", res.Participated)
	}
	if res.SubgroupAvgs[1] != nil {
		t.Fatal("degraded subgroup must not produce a SAC average")
	}
	// Exact FedAvg over the two healthy subgroups only.
	want := mean(append(append([][]float64{}, models[0:3]...), models[6:9]...))
	if d := maxAbsDiff(res.Global, want); d > 1e-9 {
		t.Fatalf("global off by %v", d)
	}
	if got := reg.Counter("round/subgroups_degraded").Value(); got != 1 {
		t.Fatalf("round/subgroups_degraded = %d, want 1", got)
	}

	// Byte accounting: a fully healthy 3×3 round costs strictly more
	// than the degraded one (subgroup 1 contributed zero traffic).
	healthy, err := sys.AggregateRound(models, RoundSpec{FedLeader: -1})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Bytes <= res.Bytes {
		t.Fatalf("healthy round bytes %d should exceed degraded round bytes %d", healthy.Bytes, res.Bytes)
	}

	// Validation still applies to the spec itself.
	if _, err := sys.AggregateRound(models, RoundSpec{Degraded: []int{3}}); err == nil {
		t.Fatal("want error for out-of-range degraded index")
	}
	// All subgroups degraded → nothing to aggregate.
	if _, err := sys.AggregateRound(models, RoundSpec{Degraded: []int{0, 1, 2}}); !errors.Is(err, errNoSubgroups) {
		t.Fatalf("err = %v, want ErrNoSubgroups", err)
	}
}
