package health

import (
	"math/rand"
	"testing"
)

// traceSamples generates n RTT samples (base plus seeded positive
// noise) per peer — a pure function of (seed, n, bases), the synthetic
// stand-ins for the LAN (15 ms), WAN (50 ms) and mixed link profiles
// the tuner must cover.
func traceSamples(seed int64, n int, baseUs map[uint64]int64) map[uint64][]int64 {
	out := make(map[uint64][]int64, len(baseUs))
	for peer, base := range baseUs {
		// Seeded per peer: map iteration order cannot leak into samples.
		prng := rand.New(rand.NewSource(seed ^ int64(peer)<<32))
		for i := 0; i < n; i++ {
			out[peer] = append(out[peer], base+prng.Int63n(base/4+1))
		}
	}
	return out
}

func trace(seed int64, n int, baseUs map[uint64]int64) *RTTStats {
	r := NewRTTStats(0)
	for peer, samples := range traceSamples(seed, n, baseUs) {
		for _, s := range samples {
			r.Observe(peer, s)
		}
	}
	return r
}

func lanTrace(seed int64) *RTTStats {
	return trace(seed, 64, map[uint64]int64{2: 15_000, 3: 15_000})
}

func wanTrace(seed int64) *RTTStats {
	return trace(seed, 64, map[uint64]int64{2: 50_000, 3: 56_000})
}

func mixedTrace(seed int64) *RTTStats {
	return trace(seed, 64, map[uint64]int64{2: 2_000, 3: 50_000, 4: 44_000})
}

// TestTuningBandsWithinClamp: for every profile and many seeds, the
// derived band stays inside [floor, 2×tuneMaxTicks] at the floor of 50, is well-formed
// (min < max), and preserves the U(T, 2T) spread shape.
func TestTuningBandsWithinClamp(t *testing.T) {
	profiles := map[string]func(int64) *RTTStats{
		"lan15": lanTrace, "wan50": wanTrace, "mixed": mixedTrace,
	}
	for name, mk := range profiles {
		for seed := int64(1); seed <= 20; seed++ {
			min, max, ok := electionTicks(mk(seed), 50)
			if !ok {
				t.Fatalf("%s seed %d: tuner refused a fully-populated trace", name, seed)
			}
			if min < 50 || min > 5000 {
				t.Errorf("%s seed %d: min %d outside clamp [50, 5000]", name, seed, min)
			}
			if max <= min {
				t.Errorf("%s seed %d: degenerate band [%d, %d)", name, seed, min, max)
			}
			if max > 2*min {
				t.Errorf("%s seed %d: band [%d, %d) wider than the U(T,2T) spread", name, seed, min, max)
			}
		}
	}
}

// TestTuningMonotoneInRTT: a strictly slower network never yields a
// smaller timeout. LAN ≤ mixed ≤ WAN for every seed (the mixed profile's
// worst link is within the WAN profile's), and scaling every sample up
// scales the band up.
func TestTuningMonotoneInRTT(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		lanMin, _, _ := electionTicks(lanTrace(seed), 50)
		mixMin, _, _ := electionTicks(mixedTrace(seed), 50)
		wanMin, _, _ := electionTicks(wanTrace(seed), 50)
		if lanMin > mixMin || mixMin > wanMin {
			t.Fatalf("seed %d: tuned mins not monotone: lan %d, mixed %d, wan %d", seed, lanMin, mixMin, wanMin)
		}
		// LAN p99 is ~18.75 ms → 10× is within [50, 5000]: the LAN band
		// must sit at (or barely above) the stock floor.
		if lanMin >= wanMin {
			t.Fatalf("seed %d: WAN band %d not above LAN band %d", seed, wanMin, lanMin)
		}

		double := NewRTTStats(0)
		for peer, samples := range traceSamples(seed, 64, map[uint64]int64{2: 50_000, 3: 56_000}) {
			for _, s := range samples {
				double.Observe(peer, 2*s)
			}
		}
		dblMin, _, _ := electionTicks(double, 50)
		if dblMin < wanMin {
			t.Fatalf("seed %d: doubling every RTT shrank the band %d → %d", seed, wanMin, dblMin)
		}
	}
}

// TestTuningDeterministicPerSeed: equal traces give byte-identical
// bands — the property that lets retuning live inside deterministic
// replay.
func TestTuningDeterministicPerSeed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		aMin, aMax, aOK := electionTicks(mixedTrace(seed), 50)
		bMin, bMax, bOK := electionTicks(mixedTrace(seed), 50)
		if aMin != bMin || aMax != bMax || aOK != bOK {
			t.Fatalf("seed %d: equal traces produced different bands [%d,%d,%v] vs [%d,%d,%v]",
				seed, aMin, aMax, aOK, bMin, bMax, bOK)
		}
	}
}

// TestTuningRefusals: the tuner must decline — rather than emit a junk
// band — without a tracker, or before any peer has tuneMinSamples
// observations.
func TestTuningRefusals(t *testing.T) {
	if _, _, ok := electionTicks(nil, 50); ok {
		t.Fatal("tuner produced a band from a nil tracker")
	}
	thin := NewRTTStats(0)
	for i := 0; i < 15; i++ { // one below tuneMinSamples = 16
		thin.Observe(2, 50_000)
	}
	if _, _, ok := electionTicks(thin, 50); ok {
		t.Fatal("tuner produced a band below tuneMinSamples")
	}
	thin.Observe(2, 50_000)
	if min, _, ok := electionTicks(thin, 50); !ok || min != 500 {
		t.Fatalf("tuner at exactly tuneMinSamples: min=%d ok=%v, want 500 (10×50ms/1ms)", min, ok)
	}
}

// TestRTTStatsWindowAndQuantiles pins the tracker plumbing the tuner
// rides on: nearest-rank quantiles, bounded ring windows that forget old
// samples, per-peer isolation, and MaxQuantile's qualification rule.
func TestRTTStatsWindowAndQuantiles(t *testing.T) {
	r := NewRTTStats(4)
	for _, v := range []int64{40, 10, 30, 20} {
		r.Observe(2, v)
	}
	if q, ok := r.Quantile(2, 0); !ok || q != 10 {
		t.Fatalf("q0 = %d,%v want 10", q, ok)
	}
	if q, ok := r.Quantile(2, 1); !ok || q != 40 {
		t.Fatalf("q1 = %d,%v want 40", q, ok)
	}
	if q, ok := r.Quantile(2, 0.5); !ok || q != 30 {
		t.Fatalf("q0.5 = %d,%v want 30 (nearest rank, idx=ceil(0.5×3)=2)", q, ok)
	}
	// Window rolls: four more samples evict the originals entirely.
	for _, v := range []int64{100, 100, 100, 100} {
		r.Observe(2, v)
	}
	if q, ok := r.Quantile(2, 0); !ok || q != 100 {
		t.Fatalf("after roll, q0 = %d,%v want 100", q, ok)
	}
	// Ignored junk and peer isolation.
	r.Observe(2, 0)
	r.Observe(2, -5)
	if n := r.Samples(2); n != 4 {
		t.Fatalf("non-positive samples were recorded: window has %d", n)
	}
	if _, ok := r.Quantile(9, 0.5); ok {
		t.Fatal("quantile for unseen peer reported ok")
	}
	// MaxQuantile takes the worst qualifying peer and skips thin ones.
	r.Observe(3, 500)
	worst, qualified := r.MaxQuantile(0.99, 4)
	if qualified != 1 || worst != 100 {
		t.Fatalf("MaxQuantile(0.99, 4) = %d over %d peers, want 100 over 1 (peer 3 unqualified)", worst, qualified)
	}
	worst, qualified = r.MaxQuantile(0.99, 1)
	if qualified != 2 || worst != 500 {
		t.Fatalf("MaxQuantile(0.99, 1) = %d over %d peers, want 500 over 2", worst, qualified)
	}
	r.Reset()
	if len(r.rings) != 0 {
		t.Fatal("Reset left peers behind")
	}
}
