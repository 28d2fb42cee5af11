package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClipL2(t *testing.T) {
	v := []float64{3, 4} // norm 5
	f, err := clipL2(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.2) > 1e-12 {
		t.Fatalf("factor = %v", f)
	}
	if math.Abs(math.Hypot(v[0], v[1])-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", math.Hypot(v[0], v[1]))
	}
	// Already inside the ball: unchanged.
	w := []float64{0.1, 0.1}
	f, err = clipL2(w, 1)
	if err != nil || f != 1 {
		t.Fatalf("no-op clip: f=%v err=%v", f, err)
	}
	if _, err := clipL2(v, 0); err == nil {
		t.Fatal("want error for non-positive bound")
	}
	// Zero vector stays zero without dividing by zero.
	z := []float64{0, 0}
	if _, err := clipL2(z, 1); err != nil || z[0] != 0 {
		t.Fatal("zero vector must clip to itself")
	}
}

// Property: after clipping, the norm never exceeds the bound.
func TestClipL2Property(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := float64(cRaw%50)/10 + 0.1
		v := make([]float64, 16)
		for i := range v {
			v[i] = rng.NormFloat64() * 100
		}
		if _, err := clipL2(v, c); err != nil {
			return false
		}
		var ss float64
		for _, x := range v {
			ss += x * x
		}
		return math.Sqrt(ss) <= c*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianSigma(t *testing.T) {
	g := Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 1}
	// σ = √(2 ln(1.25e5)) ≈ 4.84.
	if s := g.Sigma(); math.Abs(s-4.84) > 0.02 {
		t.Fatalf("sigma = %v", s)
	}
	// Stronger privacy (smaller ε) → more noise.
	weaker := Gaussian{Epsilon: 10, Delta: 1e-5, Clip: 1}
	if weaker.Sigma() >= g.Sigma() {
		t.Fatal("sigma must shrink as epsilon grows")
	}
}

func TestGaussianNoiseDistribution(t *testing.T) {
	g := Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 1}
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	w := make([]float64, n)
	g.Perturb(w, rng)
	mean, ss := 0.0, 0.0
	for _, x := range w {
		mean += x
	}
	mean /= n
	for _, x := range w {
		ss += (x - mean) * (x - mean)
	}
	std := math.Sqrt(ss / n)
	if math.Abs(mean) > 0.15 {
		t.Fatalf("noise mean = %v", mean)
	}
	if math.Abs(std-g.Sigma()) > 0.15 {
		t.Fatalf("noise std = %v, want %v", std, g.Sigma())
	}
}

func TestMechanismNames(t *testing.T) {
	if (Gaussian{}).Name() == "" {
		t.Fatal("empty names")
	}
}

func TestPrivatizeUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	global := []float64{1, 1, 1, 1}
	local := []float64{2, 2, 2, 2} // delta norm = 2
	mech := Gaussian{Epsilon: 100, Delta: 1e-5, Clip: 1}
	out, err := PrivatizeUpdate(local, global, mech, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Delta was clipped from norm 2 to 1, so out ≈ global + delta/2,
	// within the tiny ε=100 noise.
	for i := range out {
		if math.Abs(out[i]-1.5) > 0.2 {
			t.Fatalf("out = %v, want ≈ 1.5 each", out)
		}
	}
	// Inputs unmodified.
	if local[0] != 2 || global[0] != 1 {
		t.Fatal("inputs must not be mutated")
	}
}

func TestPrivatizeUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := PrivatizeUpdate([]float64{1}, []float64{1, 2}, Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 1}, rng); err == nil {
		t.Fatal("want length error")
	}
	if _, err := PrivatizeUpdate([]float64{1}, []float64{1}, Gaussian{}, rng); err == nil {
		t.Fatal("want zero-mechanism error")
	}
	if _, err := PrivatizeUpdate([]float64{1}, []float64{1}, Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 0}, rng); err == nil {
		t.Fatal("want clip error")
	}
}

// TestPrivatizeUpdateClipsToTheCalibratedBound: the delta is clipped to
// the same g.Clip that σ is calibrated to, so a delta 100× over the bound
// comes back as exactly global + (delta clipped to g.Clip) + N(0, σ²)
// noise drawn from a twin rng, σ = g.Sigma().
func TestPrivatizeUpdateClipsToTheCalibratedBound(t *testing.T) {
	g := Gaussian{Epsilon: 2, Delta: 1e-5, Clip: 0.7}
	global := []float64{0.5, -1, 2, 0.25}
	unit := []float64{3.0 / 13, -4.0 / 13, 0, 12.0 / 13}
	local := make([]float64, len(global))
	for i := range local {
		local[i] = global[i] + 100*g.Clip*unit[i]
	}
	out, err := PrivatizeUpdate(local, global, g, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}

	clipped := make([]float64, len(local))
	for i := range clipped {
		clipped[i] = local[i] - global[i]
	}
	if f, err := clipL2(clipped, g.Clip); err != nil || math.Abs(f-0.01) > 1e-12 {
		t.Fatalf("ClipL2 factor = %v, %v; want 0.01", f, err)
	}
	var ss float64
	for _, x := range clipped {
		ss += x * x
	}
	if norm := math.Sqrt(ss); math.Abs(norm-g.Clip) > 1e-12 {
		t.Fatalf("clipped delta norm = %v, want g.Clip = %v", norm, g.Clip)
	}
	twin, sigma := rand.New(rand.NewSource(6)), g.Sigma()
	for i := range out {
		if want := global[i] + (clipped[i] + twin.NormFloat64()*sigma); out[i] != want {
			t.Fatalf("out[%d] = %v, want global + clipped delta + noise = %v", i, out[i], want)
		}
	}
}

// DP noise must average out across peers: aggregating many privatized
// updates approaches the aggregate of the raw updates (the utility side
// of the DP trade-off).
func TestNoiseAveragesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const peers = 400
	global := []float64{0, 0}
	mech := Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 1}
	sum := []float64{0, 0}
	for p := 0; p < peers; p++ {
		local := []float64{0.5, -0.25} // same true update everywhere
		out, err := PrivatizeUpdate(local, global, mech, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum[0] += out[0]
		sum[1] += out[1]
	}
	avg := []float64{sum[0] / peers, sum[1] / peers}
	// σ≈4.84, so the mean of 400 draws has std ≈ 0.24 per coordinate.
	if math.Abs(avg[0]-0.5) > 0.8 || math.Abs(avg[1]+0.25) > 0.8 {
		t.Fatalf("noisy average = %v, want ≈ [0.5 -0.25]", avg)
	}
}
