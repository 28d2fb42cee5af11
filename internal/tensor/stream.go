package tensor

import "fmt"

// The aggregation kernels: Alg. 1's split of a weight vector into shares
// (ScaleInto), the subtotal sums of Algs. 2 and 4 (SumInto), the average
// of the subtotals (ScaledSumInto) and FedAvg's weighted average
// (WeightedSumInto). Their outputs are as long as the model, and at the
// paper's 1.25M weights each is 10 MB, so they are bound by memory, not
// arithmetic.
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

// ScaledSumInto writes (0 + terms[0][x] + terms[1][x] + …)·s into dst[x]:
// SumInto's sum, then one multiply.
func ScaledSumInto(dst []float64, terms [][]float64, s float64) {
	checkTerms("ScaledSumInto", dst, terms)
	scaledSumInto(dst, terms, s, streams(len(dst)))
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
		// A sum times 1 is the sum, bit for bit: ±Inf, subnormals and a
		// NaN, which the first add has already quieted, come back as they
		// are. The multiply costs nothing on a body bound by memory.
		scaledSumStream(dst, terms, 1)
		return
	}
	sumGo(dst, terms)
}

func scaledSumInto(dst []float64, terms [][]float64, s float64, stream bool) {
	if stream && len(dst) > 0 && len(terms) > 0 {
		scaledSumStream(dst, terms, s)
		return
	}
	scaledSumGo(dst, terms, s)
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

// scaledSumGo is ScaledSumInto's Go body: each tile of dst is summed and
// then scaled while it is in L1.
func scaledSumGo(dst []float64, terms [][]float64, s float64) {
	for lo := 0; lo < len(dst); lo += Tile {
		d := dst[lo:min(lo+Tile, len(dst))]
		sumTile(d, terms, lo)
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
// tile of it taking f[i]·terms[i], i ascending, while it is in L1.
func weightedSumGo(dst []float64, f []float64, terms [][]float64) {
	for lo := 0; lo < len(dst); lo += Tile {
		d := dst[lo:min(lo+Tile, len(dst))]
		first := true
		for i, t := range terms {
			fi := f[i]
			if fi == 0 {
				continue
			}
			v := t[lo:][:len(d)]
			if first {
				for x := range d {
					d[x] = 0 + fi*v[x]
				}
				first = false
				continue
			}
			for x := range d {
				d[x] += fi * v[x]
			}
		}
		if first {
			clear(d)
		}
	}
}
