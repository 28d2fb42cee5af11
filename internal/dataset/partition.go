package dataset

import (
	"fmt"
	"math/rand"
)

// Distribution selects the per-peer training-data distribution, matching
// Sec. VI-A1 of the paper.
type Distribution int

const (
	// IID: each peer's data is identically and independently distributed.
	IID Distribution = iota
	// NonIID5: 95% of a peer's data comes from its two main classes, 5%
	// from the remaining classes.
	NonIID5
	// NonIID0: a peer's data contains only its two main classes.
	NonIID0
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case IID:
		return "IID"
	case NonIID5:
		return "Non-IID (5%)"
	case NonIID0:
		return "Non-IID (0%)"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// mainFraction returns the fraction of a peer's samples drawn from its two
// main classes.
func (d Distribution) mainFraction() float64 {
	switch d {
	case NonIID5:
		return 0.95
	case NonIID0:
		return 1.0
	default:
		return -1 // IID: not class-constrained
	}
}

// Partition splits train among numPeers peers according to dist. Under IID
// the shuffled samples are dealt round-robin. Under the non-IID settings
// each peer is assigned two main classes uniformly at random (as in the
// paper: "two main classes randomly selected out of the ten") and its
// share of samples is filled to the main fraction from those classes and
// the remainder from the others.
//
// Every returned partition has ⌊len/numPeers⌋ or ⌈len/numPeers⌉ samples.
func Partition(train *Dataset, numPeers int, dist Distribution, rng *rand.Rand) ([]*Dataset, error) {
	if numPeers < 1 {
		return nil, fmt.Errorf("dataset: numPeers = %d", numPeers)
	}
	if train.Len() < numPeers {
		return nil, fmt.Errorf("dataset: %d samples cannot cover %d peers", train.Len(), numPeers)
	}
	if dist == IID {
		return partitionIID(train, numPeers, rng), nil
	}
	return partitionNonIID(train, numPeers, dist.mainFraction(), rng)
}

func partitionIID(train *Dataset, numPeers int, rng *rand.Rand) []*Dataset {
	perm := rng.Perm(train.Len())
	parts := make([]*Dataset, numPeers)
	for p := 0; p < numPeers; p++ {
		var idx []int
		for i := p; i < len(perm); i += numPeers {
			idx = append(idx, perm[i])
		}
		parts[p] = train.Subset(idx)
	}
	return parts
}

func partitionNonIID(train *Dataset, numPeers int, mainFrac float64, rng *rand.Rand) ([]*Dataset, error) {
	classes := train.Classes
	if classes < 3 {
		return nil, fmt.Errorf("dataset: non-IID partitioning needs ≥ 3 classes, got %d", classes)
	}
	// Pools of sample indices per class, shuffled.
	pools := make([][]int, classes)
	for i, s := range train.Samples {
		pools[s.Label] = append(pools[s.Label], i)
	}
	for _, pool := range pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	next := make([]int, classes) // consumption cursor per class

	// take removes up to n indices from class c's pool, cycling (with
	// replacement across peers) if the pool is exhausted: the synthetic
	// generator can always mint more samples of a class, so reusing an
	// index only means two peers hold an identical sample, which is
	// harmless for these experiments.
	take := func(c, n int) []int {
		out := make([]int, 0, n)
		for len(out) < n {
			if next[c] >= len(pools[c]) {
				next[c] = 0
			}
			if len(pools[c]) == 0 {
				break
			}
			out = append(out, pools[c][next[c]])
			next[c]++
		}
		return out
	}

	per := train.Len() / numPeers
	parts := make([]*Dataset, numPeers)
	for p := 0; p < numPeers; p++ {
		// Two distinct main classes, uniformly at random.
		a := rng.Intn(classes)
		b := rng.Intn(classes - 1)
		if b >= a {
			b++
		}
		nMain := int(float64(per) * mainFrac)
		nRest := per - nMain
		var idx []int
		idx = append(idx, take(a, nMain/2)...)
		idx = append(idx, take(b, nMain-nMain/2)...)
		for i := 0; i < nRest; i++ {
			c := rng.Intn(classes - 2)
			// Map onto classes other than a and b.
			for _, m := range []int{min(a, b), max(a, b)} {
				if c >= m {
					c++
				}
			}
			idx = append(idx, take(c, 1)...)
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		parts[p] = train.Subset(idx)
	}
	return parts, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
