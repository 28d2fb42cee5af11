package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sac"
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// sacRound is one round of the SAC oracle: a randomized k-out-of-n
// aggregation under a seed-derived crash plan, held to SAC exactness
// (the recovered average is the contributors' plaintext mean, and
// ErrInsufficientPeers only when the survivors lost share coverage) and
// SAC privacy (for k ≥ 2 no single peer observes all n shares of
// another's model). It drives transport.Mesh directly: SAC is
// round-synchronous, not clocked, so the oracle needs no target.
func sacRound(c Campaign, rep *Report, led *ledger, rng *rand.Rand, round int) {
	rep.Stats.SACRounds++
	n := 3 + rng.Intn(4) // 3..6 peers
	// Keep 2 ≤ k < n: k ≥ 2 so privacy applies, k < n so replication is
	// active and crashes are tolerable rather than (legitimately) fatal.
	k := 2
	if n > 3 {
		k += rng.Intn(n - 2)
	}
	dim := 2 + rng.Intn(3) // small models keep campaigns fast
	leader := rng.Intn(n)
	models := make([][]float64, n)
	for i := range models {
		models[i] = make([]float64, dim)
		for d := range models[i] {
			models[i][d] = math.Round(rng.Float64()*2000-1000) / 16
		}
	}

	// Crash up to n−1 peers at seed-chosen phase boundaries.
	plan := sac.CrashPlan{}
	for _, p := range rng.Perm(n)[:rng.Intn(n)] {
		phase := sac.BeforeShares
		if rng.Intn(2) == 1 {
			phase = sac.AfterShares
		}
		plan[p] = phase
	}

	mesh := transport.NewMesh(n, nil)
	seen := watchShares(mesh, n)

	cfg := sac.Config{N: n, K: k, Leader: leader, Mode: sac.ModeLeader,
		Rng: rand.New(rand.NewSource(rng.Int63())), Telemetry: c.Telemetry}
	res, err := sac.Run(mesh, cfg, models, plan)
	now := int64(round) // oracle rounds are unclocked; index stands in for time

	tag := fmt.Sprintf("round %d (n=%d k=%d leader=%d crashes=%d)", round, n, k, leader, len(plan))
	switch {
	case err == nil:
		checkExactness(led, now, tag, models, res)
	case errors.Is(err, sac.ErrLeaderCrashed):
		if _, crashed := plan[leader]; !crashed {
			led.violate(now, "sac-exactness", tag+": ErrLeaderCrashed without a leader crash")
		}
	case errors.Is(err, sac.ErrInsufficientPeers):
		// Only legitimate when the survivors genuinely lost share coverage.
		alive := alivePeers(n, plan)
		if covered, cerr := secretshare.CoversAllShares(alive, n, k); cerr == nil && covered {
			led.violate(now, "sac-exactness",
				tag+": ErrInsufficientPeers although surviving peers cover all shares")
		}
	default:
		led.violate(now, "sac-exactness", fmt.Sprintf("%s: unexpected error %v", tag, err))
	}

	checkPrivacy(led, now, tag, n, k, seen)
}

// watchShares observes mesh and returns the privacy probe it fills:
// seen[observer][victim] is the set of share indices of victim's model
// that observer received. An observer holding all n of them can
// reconstruct the model.
func watchShares(mesh *transport.Mesh, n int) []map[int]map[int]bool {
	seen := make([]map[int]map[int]bool, n)
	for i := range seen {
		seen[i] = make(map[int]map[int]bool)
	}
	mesh.Observe(func(m transport.Message) {
		if m.Kind != sac.KindShare || m.From == m.To {
			return
		}
		if seen[m.To][m.From] == nil {
			seen[m.To][m.From] = make(map[int]bool)
		}
		seen[m.To][m.From][m.ShareIdx] = true
	})
	return seen
}

// plainMean is the plaintext mean of models[i] over i in subset, summed
// in subset order; a nil subset means every model.
func plainMean(models [][]float64, subset []int) []float64 {
	if subset == nil {
		subset = make([]int, len(models))
		for i := range subset {
			subset[i] = i
		}
	}
	out := make([]float64, len(models[0]))
	for _, i := range subset {
		for d, v := range models[i] {
			out[d] += v
		}
	}
	for d := range out {
		out[d] /= float64(len(subset))
	}
	return out
}

// uncoveredSubgroup returns the first subgroup whose full membership
// does not cover all shares of its k-of-n geometry, or -1.
func uncoveredSubgroup(sizes, k []int) (int, error) {
	for g, n := range sizes {
		alive := make([]int, n)
		for i := range alive {
			alive[i] = i
		}
		if covered, err := secretshare.CoversAllShares(alive, n, k[g]); err != nil || !covered {
			return g, err
		}
	}
	return -1, nil
}

func alivePeers(n int, plan sac.CrashPlan) []int {
	var out []int
	for p := 0; p < n; p++ {
		if _, crashed := plan[p]; !crashed {
			out = append(out, p)
		}
	}
	return out
}

// checkExactness compares the SAC average against the plaintext mean of
// the contributors the engine reports.
func checkExactness(led *ledger, now int64, tag string, models [][]float64, res *sac.Result) {
	if len(res.Contributors) == 0 {
		led.violate(now, "sac-exactness", tag+": success with zero contributors")
		return
	}
	want := plainMean(models, res.Contributors)
	if len(res.Avg) != len(want) {
		led.violate(now, "sac-exactness", fmt.Sprintf("%s: average has dim %d, want %d", tag, len(res.Avg), len(want)))
		return
	}
	if d := firstBeyond(res.Avg, want, 1e-9); d >= 0 {
		led.violate(now, "sac-exactness",
			fmt.Sprintf("%s: avg[%d] = %g, plaintext mean %g", tag, d, res.Avg[d], want[d]))
	}
}

// firstBeyond returns the first coordinate at which got and want differ
// by more than tol, or -1.
func firstBeyond(got, want []float64, tol float64) int {
	for d := range want {
		if math.Abs(got[d]-want[d]) > tol {
			return d
		}
	}
	return -1
}

// checkPrivacy asserts that no single observer accumulated all n share
// indices of another peer's model.
func checkPrivacy(led *ledger, now int64, tag string, n, k int, seen []map[int]map[int]bool) {
	if k < 2 {
		return // k = 1 shares are the plaintext; nothing to check
	}
	for observer := 0; observer < n; observer++ {
		for victim, idxs := range seen[observer] {
			if len(idxs) >= n {
				led.violate(now, "sac-privacy",
					fmt.Sprintf("%s: peer %d observed all %d shares of peer %d's model",
						tag, observer, n, victim))
			}
		}
	}
}
