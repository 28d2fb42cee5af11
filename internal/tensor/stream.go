package tensor

import "fmt"

// The aggregation kernels: Alg. 1's split of a weight vector into shares
// (ScaleInto), the subtotal sums of Algs. 2 and 4 (SumInto), the average
// of the subtotals, some of which it may sum itself (ScaledSumInto), and
// FedAvg's weighted average (WeightedSumInto). Their outputs are as long
// as the model, and at the paper's 1.25M weights each is 10 MB, so they
// are bound by memory, not arithmetic.
//
// Each has two bodies. The Go loops are the portable one and the
// reference: they walk the output in tiles of Tile floats, so a tile
// that takes several terms, or is written from one tile of the input per
// share, stays in L1 between them. On amd64 CPUs with AVX2 (useAVX2),
// an output of at least streamMin floats runs the stream body of
// stream_amd64.s instead, which computes eight floats at a time in two
// YMM registers and writes them with two non-temporal stores
// (VMOVNTPD). An ordinary store first reads the line it writes
// (write-allocate), so it moves twice the bytes the output holds; a
// streamed one moves them once and leaves the caches to the inputs. The
// stream body keeps each coordinate in a register until every term is
// in, so it never reads its output back: the arithmetic and the store
// are one loop (computing a tile in L1 and then streaming it out was
// slower than the cached loops, DESIGN §7).
//
// Both bodies give the same bits. A lane does what one statement of the
// Go body does, in the same order — a multiply, then an add, never a
// fused multiply-add — and every sum starts from +0, so a coordinate
// that is −0 in every term sums to +0 on both. The stream body peels the
// output to a 32-byte boundary with scalar steps (VMOVNTPD faults on an
// unaligned address; shares and subtotal slots sit at i·dim offsets in
// their blocks, which for an odd dim are only 8-byte aligned), takes the
// last fewer than eight floats the same way, and ends with SFENCE, so
// its stores are visible to whoever reads the output next.

// Tile is the length, in floats, of the cached bodies' tiles: 2,048
// floats, 16 KiB, which stay in L1 while every term is added into them.
const Tile = 2048

// streamMin is the output length, in floats, from which a kernel runs its
// stream body: 1 MiB, where the Go runtime's memmove (memmove_amd64.s)
// switches to non-temporal stores. A shorter output fits in the caches,
// where a cached store costs less than a streamed one.
const streamMin = 1 << 17

// streams reports whether a kernel whose output vectors are n floats long
// runs its stream body.
func streams(n int) bool { return useAVX2 && n >= streamMin }

// ScaleInto writes f[i]·src[x] into dst[i][x] for every i and x. Every
// dst[i] must be as long as src, and f as long as dst.
func ScaleInto(dst [][]float64, f []float64, src []float64) {
	if len(f) != len(dst) {
		panic(fmt.Sprintf("tensor: ScaleInto with %d factors for %d outputs", len(f), len(dst)))
	}
	for i, d := range dst {
		if len(d) != len(src) {
			panic(fmt.Sprintf("tensor: ScaleInto output %d has %d floats, the input %d", i, len(d), len(src)))
		}
	}
	scaleInto(dst, f, src, streams(len(src)))
}

// SumInto writes 0 + terms[0][x] + terms[1][x] + …, left to right, into
// dst[x], over whatever dst held. Every term must be at least as long as
// dst. With no terms dst is all +0.
func SumInto(dst []float64, terms [][]float64) {
	checkTerms("SumInto", dst, terms)
	sumInto(dst, terms, streams(len(dst)))
}

// ScaledSumInto writes (0 + G₀[x] + G₁[x] + …)·s into dst[x], left to
// right, where group g sums the next groups[g] terms from +0: G₀[x] =
// 0 + terms[0][x] + … + terms[groups[0]−1][x], G₁ the groups[1] terms
// after those, and so on. The running sum starts at +0 and is never −0,
// so a group of one term adds that term's bits and SumInto's sum is one
// group with s = 1. groups must add up to len(terms).
func ScaledSumInto(dst []float64, terms [][]float64, groups []int, s float64) {
	checkTerms("ScaledSumInto", dst, terms)
	total := 0
	for g, n := range groups {
		if n < 0 {
			panic(fmt.Sprintf("tensor: ScaledSumInto group %d has %d terms", g, n))
		}
		total += n
	}
	if total != len(terms) {
		panic(fmt.Sprintf("tensor: ScaledSumInto groups of %d terms in all for %d terms", total, len(terms)))
	}
	scaledSumInto(dst, terms, groups, s, streams(len(dst)))
}

// WeightedSumInto writes 0 + f[0]·terms[0][x] + f[1]·terms[1][x] + …,
// left to right, into dst[x], skipping every term whose factor is zero
// (so a zero-weight term's NaN or ±Inf does not reach dst). f must be as
// long as terms.
func WeightedSumInto(dst []float64, f []float64, terms [][]float64) {
	checkTerms("WeightedSumInto", dst, terms)
	if len(f) != len(terms) {
		panic(fmt.Sprintf("tensor: WeightedSumInto with %d factors for %d terms", len(f), len(terms)))
	}
	weightedSumInto(dst, f, terms, streams(len(dst)))
}

func checkTerms(kind string, dst []float64, terms [][]float64) {
	for i, t := range terms {
		if len(t) < len(dst) {
			panic(fmt.Sprintf("tensor: %s term %d has %d floats, the output %d", kind, i, len(t), len(dst)))
		}
	}
}

// scaleInto, sumInto, scaledSumInto and weightedSumInto run their
// kernel's stream body if stream is set and there is something to write,
// its Go body otherwise. The arguments are checked.

func scaleInto(dst [][]float64, f []float64, src []float64, stream bool) {
	if stream && len(dst) > 0 && len(src) > 0 {
		scaleStream(dst, f, src)
		return
	}
	scaleGo(dst, f, src)
}

func sumInto(dst []float64, terms [][]float64, stream bool) {
	if stream && len(dst) > 0 && len(terms) > 0 {
		// One group times 1 is its sum, bit for bit: 0 + G is G, since G
		// starts from +0, and ±Inf, subnormals and a NaN, which the first
		// add has already quieted, come back as they are. The multiply
		// costs nothing on a body bound by memory.
		scaledSumStream(dst, terms, []int{len(terms)}, 1)
		return
	}
	sumGo(dst, terms)
}

func scaledSumInto(dst []float64, terms [][]float64, groups []int, s float64, stream bool) {
	if stream && len(dst) > 0 && len(terms) > 0 {
		scaledSumStream(dst, terms, groups, s)
		return
	}
	scaledSumGo(dst, terms, groups, s)
}

func weightedSumInto(dst []float64, f []float64, terms [][]float64, stream bool) {
	if stream && len(dst) > 0 && len(terms) > 0 {
		weightedSumStream(dst, f, terms)
		return
	}
	weightedSumGo(dst, f, terms)
}

// scaleGo is ScaleInto's Go body: one read of src, each tile of it
// written into every output while it is in L1.
func scaleGo(dst [][]float64, f []float64, src []float64) {
	for lo := 0; lo < len(src); lo += Tile {
		st := src[lo:min(lo+Tile, len(src))]
		for i, d := range dst {
			fi, dt := f[i], d[lo:lo+len(st)]
			for j, v := range st {
				dt[j] = fi * v
			}
		}
	}
}

// sumGo is SumInto's Go body: one pass over dst.
func sumGo(dst []float64, terms [][]float64) {
	for lo := 0; lo < len(dst); lo += Tile {
		sumTile(dst[lo:min(lo+Tile, len(dst))], terms, lo)
	}
}

// scaledSumGo is ScaledSumInto's Go body: each tile of dst takes every
// group while it is in L1 and is then scaled. The first group is summed
// straight into the tile (0 + G₀ is G₀), a one-term group is added as
// its term (r + (0 + t) is r + t), and any other group is summed into a
// stack tile of its own and then added.
func scaledSumGo(dst []float64, terms [][]float64, groups []int, s float64) {
	var sub [Tile]float64
	for lo := 0; lo < len(dst); lo += Tile {
		d := dst[lo:min(lo+Tile, len(dst))]
		if len(groups) == 0 {
			clear(d)
		}
		for g, t := 0, 0; g < len(groups); g, t = g+1, t+groups[g] {
			switch gt := terms[t : t+groups[g]]; {
			case g == 0:
				sumTile(d, gt, lo)
			case len(gt) == 1:
				for x, v := range gt[0][lo:][:len(d)] {
					d[x] += v
				}
			default:
				st := sub[:len(d)]
				sumTile(st, gt, lo)
				for x, v := range st {
					d[x] += v
				}
			}
		}
		for x := range d {
			d[x] *= s
		}
	}
}

// sumTile writes 0 + terms[0][lo+x] + terms[1][lo+x] + … into the tile d,
// taking up to three terms per sweep of it. Per coordinate those are the
// additions, in the order, of adding each term in a pass of its own into
// a zeroed vector; the first sweep writes 0 + v over whatever d held, so
// −0 sums to +0 without a pass that zeroes it.
func sumTile(d []float64, terms [][]float64, lo int) {
	if len(terms) == 0 {
		clear(d)
	}
	for t := 0; t < len(terms); t += 3 {
		a := terms[t][lo:][:len(d)]
		switch left := len(terms) - t; {
		case left >= 3 && t == 0:
			b, c := terms[t+1][lo:][:len(d)], terms[t+2][lo:][:len(d)]
			for x := range d {
				d[x] = 0 + a[x] + b[x] + c[x]
			}
		case left >= 3:
			b, c := terms[t+1][lo:][:len(d)], terms[t+2][lo:][:len(d)]
			for x := range d {
				d[x] = d[x] + a[x] + b[x] + c[x]
			}
		case left == 2 && t == 0:
			b := terms[t+1][lo:][:len(d)]
			for x := range d {
				d[x] = 0 + a[x] + b[x]
			}
		case left == 2:
			b := terms[t+1][lo:][:len(d)]
			for x := range d {
				d[x] = d[x] + a[x] + b[x]
			}
		case t == 0:
			for x := range d {
				d[x] = 0 + a[x]
			}
		default:
			for x := range d {
				d[x] += a[x]
			}
		}
	}
}

// weightedSumGo is WeightedSumInto's Go body: one pass over dst, each
// tile of it taking f[i]·terms[i], i ascending, while it is in L1, up
// to three terms of non-zero factor a sweep.
func weightedSumGo(dst []float64, f []float64, terms [][]float64) {
	for lo := 0; lo < len(dst); lo += Tile {
		d := dst[lo:min(lo+Tile, len(dst))]
		var fs [3]float64
		var vs [3][]float64
		k, from0 := 0, true
		for i, t := range terms {
			if f[i] == 0 {
				continue
			}
			fs[k], vs[k] = f[i], t[lo:][:len(d)]
			if k++; k == 3 {
				weightedTile(d, fs, vs, k, from0)
				k, from0 = 0, false
			}
		}
		if k > 0 {
			weightedTile(d, fs, vs, k, from0)
		} else if from0 {
			clear(d)
		}
	}
}

// weightedTile adds f[0]·v[0][x] + … + f[k−1]·v[k−1][x], left to right,
// into the tile d: to +0 when from0 is set, else to d's own value. Every
// product is rounded before it is added (the float64 conversions keep
// the compiler from fusing a multiply-add where it may), as in a pass
// per term.
func weightedTile(d []float64, f [3]float64, v [3][]float64, k int, from0 bool) {
	a, fa := v[0][:len(d)], f[0]
	switch {
	case k == 3 && from0:
		b, c, fb, fc := v[1][:len(d)], v[2][:len(d)], f[1], f[2]
		for x := range d {
			d[x] = 0 + float64(fa*a[x]) + float64(fb*b[x]) + float64(fc*c[x])
		}
	case k == 3:
		b, c, fb, fc := v[1][:len(d)], v[2][:len(d)], f[1], f[2]
		for x := range d {
			d[x] = d[x] + float64(fa*a[x]) + float64(fb*b[x]) + float64(fc*c[x])
		}
	case k == 2 && from0:
		b, fb := v[1][:len(d)], f[1]
		for x := range d {
			d[x] = 0 + float64(fa*a[x]) + float64(fb*b[x])
		}
	case k == 2:
		b, fb := v[1][:len(d)], f[1]
		for x := range d {
			d[x] = d[x] + float64(fa*a[x]) + float64(fb*b[x])
		}
	case from0:
		for x := range d {
			d[x] = 0 + float64(fa*a[x])
		}
	default:
		for x := range d {
			d[x] += float64(fa * a[x])
		}
	}
}
