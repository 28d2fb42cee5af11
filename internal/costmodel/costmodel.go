// Package costmodel implements the closed-form communication-cost
// analysis of Sec. VII of the paper, in units of |w| (the byte size of
// one weight tensor) so the formulas can be compared both against each
// other (Figs. 13, 14) and against bytes measured by internal/transport.
//
// All costs are per aggregation round, over the whole network:
//
//	baseline one-layer SAC (Alg. 2):  2N(N−1)·|w|
//	two-layer, n-out-of-n (Eq. 4):    (mn²+mn−2)·|w|
//	two-layer, k-out-of-n (Eq. 5):    {(n²−kn+k)N+km−2}·|w|
//	X-layer,  n-out-of-n (Eq. 10):    (N−1)(n+2)·|w|
package costmodel

import "fmt"

// PaperCNNParams is the parameter count of the paper's Fig. 5 CNN for
// CIFAR-10 ("1.25M parameters"; the exact count of the architecture).
const PaperCNNParams = 1250858

// BytesPerParam is the wire size of one weight. The paper plots costs in
// gigabits assuming 32-bit floats; this reproduction's transports move
// float64 (8 bytes). Both are supported: use WeightBytes to pick.
const (
	BytesPerParam32 = 4
	BytesPerParam64 = 8
)

// WeightBytes returns |w| in bytes for a model with params parameters at
// the given per-parameter width.
func WeightBytes(params, bytesPerParam int) int64 {
	return int64(params) * int64(bytesPerParam)
}

// Gigabits converts bytes to gigabits (the unit of Figs. 13–14).
func Gigabits(bytes int64) float64 { return float64(bytes) * 8 / 1e9 }

// BaselineUnits returns the one-layer SAC cost 2N(N−1) in units of |w|.
func BaselineUnits(n int) (int64, error) {
	if n < 1 {
		return 0, fmt.Errorf("costmodel: N = %d", n)
	}
	return 2 * int64(n) * int64(n-1), nil
}

// TwoLayerUnits returns Eq. 4 — (mn²+mn−2) — for m equal subgroups of
// size n (n-out-of-n sharing).
func TwoLayerUnits(m, n int) (int64, error) {
	if m < 1 || n < 1 {
		return 0, fmt.Errorf("costmodel: m=%d n=%d", m, n)
	}
	mm, nn := int64(m), int64(n)
	return mm*nn*nn + mm*nn - 2, nil
}

// TwoLayerUnevenUnits computes the two-layer n-out-of-n cost for uneven
// subgroup sizes (the Fig. 13 sweep distributes N mod m evenly):
// Σ(n_g²−1) for the subgroup SACs + 2(m−1) for the FedAvg layer +
// Σ(n_g−1) for the final broadcast.
func TwoLayerUnevenUnits(sizes []int) (int64, error) {
	if len(sizes) == 0 {
		return 0, fmt.Errorf("costmodel: no subgroups")
	}
	var total int64
	for _, n := range sizes {
		if n < 1 {
			return 0, fmt.Errorf("costmodel: subgroup size %d", n)
		}
		nn := int64(n)
		total += nn*nn - 1 // subgroup SAC (leader-collect)
		total += nn - 1    // broadcast to followers
	}
	total += 2 * int64(len(sizes)-1) // FedAvg upload + download
	return total, nil
}

// TwoLayerUnevenKNUnits generalizes TwoLayerUnevenUnits to a threshold k
// per subgroup (clamped to the subgroup size).
func TwoLayerUnevenKNUnits(sizes []int, k int) (int64, error) {
	if len(sizes) == 0 {
		return 0, fmt.Errorf("costmodel: no subgroups")
	}
	if k < 1 {
		return 0, fmt.Errorf("costmodel: k = %d", k)
	}
	var total int64
	for _, n := range sizes {
		if n < 1 {
			return 0, fmt.Errorf("costmodel: subgroup size %d", n)
		}
		kk := k
		if kk > n {
			kk = n
		}
		nn, kn := int64(n), int64(kk)
		total += nn*(nn-1)*(nn-kn+1) + (kn - 1) // subgroup SAC (Alg. 4)
		total += nn - 1                         // broadcast to followers
	}
	total += 2 * int64(len(sizes)-1)
	return total, nil
}

// TwoLayerSecureUpperUnits returns the two-layer cost when the upper
// layer also uses SAC (the Sec. IV-D stronger-privacy variant this
// library implements as core.Config.SecureUpper): the 2(m−1) FedAvg
// upload is replaced by a leader-collect SAC of (m²−1), keeping the
// (m−1) download and the m(n−1) broadcast.
func TwoLayerSecureUpperUnits(m, n int) (int64, error) {
	if m < 1 || n < 1 {
		return 0, fmt.Errorf("costmodel: m=%d n=%d", m, n)
	}
	mm, nn := int64(m), int64(n)
	subgroup := mm * (nn*nn - 1)
	upper := int64(0)
	if m > 1 {
		upper = mm*mm - 1
	}
	return subgroup + upper + (mm - 1) + mm*(nn-1), nil
}

// MultiLayerPeers returns Eq. 6: the total peers of an X-layer system
// with subgroup size n, N = Σ_{x=1..X} n(n−1)^{x−1}.
func MultiLayerPeers(n, layers int) (int64, error) {
	if n < 2 || layers < 1 {
		return 0, fmt.Errorf("costmodel: n=%d X=%d", n, layers)
	}
	var total, term int64 = 0, int64(n)
	for x := 1; x <= layers; x++ {
		total += term
		term *= int64(n - 1)
	}
	return total, nil
}

// MultiLayerUnits returns Eq. 10: the X-layer aggregation cost
// (N−1)(n+2) in units of |w|, with N from MultiLayerPeers.
func MultiLayerUnits(n, layers int) (int64, error) {
	N, err := MultiLayerPeers(n, layers)
	if err != nil {
		return 0, err
	}
	return (N - 1) * int64(n+2), nil
}

// ScaleTier names one point on the massive-scale X-layer curve: a
// subgroup degree and depth whose Eq. 6 peer count lands in the named
// magnitude band. The engine's scale tests and `p2pfl-bench -multilayer`
// walk these tiers, cross-checking measured bytes against Eq. 10 at each.
type ScaleTier struct {
	Name   string // magnitude label: "1k", "10k", "100k"
	Degree int    // subgroup size n
	Layers int    // depth X
	Peers  int64  // Eq. 6 total, denormalized for display
}

// ScaleTiers returns the standard scale ladder: degree-4 trees of depth
// 6/8/10, i.e. N = 2(3^X − 1) = 1456, 13120, and 118096 peers.
func ScaleTiers() []ScaleTier {
	tiers := []ScaleTier{
		{Name: "1k", Degree: 4, Layers: 6},
		{Name: "10k", Degree: 4, Layers: 8},
		{Name: "100k", Degree: 4, Layers: 10},
	}
	for i := range tiers {
		n, err := MultiLayerPeers(tiers[i].Degree, tiers[i].Layers)
		if err != nil {
			panic(err) // static parameters; unreachable
		}
		tiers[i].Peers = n
	}
	return tiers
}

// TierFor returns the shallowest degree-n tier holding at least peers
// peers: the depth a deployment of that size needs.
func TierFor(n int, peers int64) (ScaleTier, error) {
	if peers < 1 {
		return ScaleTier{}, fmt.Errorf("costmodel: peers = %d", peers)
	}
	for layers := 1; ; layers++ {
		total, err := MultiLayerPeers(n, layers)
		if err != nil {
			return ScaleTier{}, err
		}
		if total >= peers {
			return ScaleTier{Name: fmt.Sprintf("custom-%d", peers), Degree: n, Layers: layers, Peers: total}, nil
		}
		if layers > 64 {
			return ScaleTier{}, fmt.Errorf("costmodel: no tier of degree %d reaches %d peers", n, peers)
		}
	}
}
