package nn

// Direct convolution kernels. All three work on the [b, C, H, W] tensors
// themselves — no column matrix, no transposed activations — and pin the
// summation order of the im2col + MatMul composition they replaced (kept
// in conv_oracle_test.go as the test oracle), so results are identical to
// it for finite inputs, modulo the sign of zero. Out-of-image taps are
// skipped here and multiplied by a stored 0 there, so the two can differ
// only where a padded border meets a non-finite weight or gradient (the
// oracle's 0·Inf is NaN).
//
// Register blocking is the same everywhere: a block of ocBlock output
// channels shares every load of the other operand, two pixels (forward)
// or two input channels (backward) at a time, which gives eight
// independent accumulation chains per inner-loop iteration. Channel
// counts that do not fill a block reuse a neighbouring channel's data
// and throw the extra accumulators away, so there is one loop nest per
// kernel, not one per remainder.
//
// Every accumulation is written `acc += a * b` with the oracle's operand
// order, so a compiler that fuses multiply-add fuses both sides alike.

// ocBlock is the number of output channels a kernel keeps in registers.
const ocBlock = 4

// convGeom is the shape of one convolution call.
type convGeom struct {
	b, inC, outC int
	h, w         int // input height, width
	oh, ow       int // output height, width
	k, p         int // kernel side, padding pixels
}

func (g *convGeom) ocBlocks() int { return (g.outC + ocBlock - 1) / ocBlock }
func (g *convGeom) ciPairs() int  { return (g.inC + 1) / 2 }
func (g *convGeom) taps() int     { return g.inC * g.k * g.k }

// macs is the multiply-add count of one forward pass (border taps
// included), the size measure the fan-out threshold uses.
func (g *convGeom) macs() int { return g.b * g.oh * g.ow * g.outC * g.taps() }

// packWeights interleaves w ([outC, inC·k·k]) by output-channel block:
// dst[ob·taps+t][j] = w[ob·ocBlock+j][t], zero for channels past outC.
// The forward kernel then reads one block's weights for a tap as a single
// [ocBlock]float64.
func packWeights(g *convGeom, dst [][ocBlock]float64, w []float64) {
	taps := g.taps()
	for ob := 0; ob < g.ocBlocks(); ob++ {
		blk := dst[ob*taps : (ob+1)*taps]
		for j := 0; j < ocBlock; j++ {
			oc := ob*ocBlock + j
			if oc >= g.outC {
				for t := range blk {
					blk[t][j] = 0
				}
				continue
			}
			row := w[oc*taps : (oc+1)*taps]
			for t, v := range row {
				blk[t][j] = v
			}
		}
	}
}

// clampTaps returns the range [lo, hi) of kernel offsets whose input
// coordinate o+t−p lies in [0, n).
func clampTaps(o, k, p, n int) (lo, hi int) {
	lo, hi = 0, k
	if p-o > lo {
		lo = p - o
	}
	if n+p-o < hi {
		hi = n + p - o
	}
	return lo, hi
}

// convForward computes the output planes of image bi for output-channel
// block ob. Each output element is the sum over (ci, ky, kx) ascending,
// from +0, of x·w, plus the bias — the row-dot of MatMulTransB over an
// im2col row, followed by the bias pass.
//
// Interior pixels are taken two at a time (2 pixels × 4 channels = 8
// chains, each weight load shared by both pixels); pixels whose window
// crosses the left or right edge, and an odd leftover, go through the
// single-pixel loop with clamped kx.
func convForward(g *convGeom, x []float64, wp [][ocBlock]float64, bias, out []float64, bi, ob int) {
	k, p, h, w, oh, ow, inC := g.k, g.p, g.h, g.w, g.oh, g.ow, g.inC
	taps := g.taps()
	wb := wp[ob*taps : (ob+1)*taps]
	oc0 := ob * ocBlock
	nch := min(ocBlock, g.outC-oc0)
	var bs [ocBlock]float64
	copy(bs[:], bias[oc0:oc0+nch])
	xb := x[bi*inC*h*w : (bi+1)*inC*h*w]
	plane := oh * ow
	for oy := 0; oy < oh; oy++ {
		kyLo, kyHi := clampTaps(oy, k, p, h)
		orow := (bi*g.outC+oc0)*plane + oy*ow
		for ox := 0; ox < ow; ox++ {
			if ox >= p && ox+1-p+k <= w && ox+1 < ow {
				var a00, a01, a02, a03, a10, a11, a12, a13 float64
				for ci := 0; ci < inC; ci++ {
					for ky := kyLo; ky < kyHi; ky++ {
						xo := (ci*h+oy+ky-p)*w + ox - p
						ws := wb[(ci*k+ky)*k : (ci*k+ky)*k+k]
						xs := xb[xo : xo+k+1]
						for j := range ws {
							x0, x1 := xs[j], xs[j+1]
							wv := &ws[j]
							v := wv[0]
							a00 += x0 * v
							a10 += x1 * v
							v = wv[1]
							a01 += x0 * v
							a11 += x1 * v
							v = wv[2]
							a02 += x0 * v
							a12 += x1 * v
							v = wv[3]
							a03 += x0 * v
							a13 += x1 * v
						}
					}
				}
				a := [2 * ocBlock]float64{
					a00 + bs[0], a01 + bs[1], a02 + bs[2], a03 + bs[3],
					a10 + bs[0], a11 + bs[1], a12 + bs[2], a13 + bs[3],
				}
				for j := 0; j < nch; j++ {
					out[orow+j*plane+ox] = a[j]
					out[orow+j*plane+ox+1] = a[ocBlock+j]
				}
				ox++
				continue
			}
			kxLo, kxHi := clampTaps(ox, k, p, w)
			var a0, a1, a2, a3 float64
			for ci := 0; ci < inC; ci++ {
				for ky := kyLo; ky < kyHi; ky++ {
					xo := (ci*h+oy+ky-p)*w + ox - p
					xs := xb[xo+kxLo : xo+kxHi]
					ws := wb[(ci*k+ky)*k+kxLo : (ci*k+ky)*k+kxHi]
					ws = ws[:len(xs)]
					for j, xv := range xs {
						wv := &ws[j]
						a0 += xv * wv[0]
						a1 += xv * wv[1]
						a2 += xv * wv[2]
						a3 += xv * wv[3]
					}
				}
			}
			a := [ocBlock]float64{a0 + bs[0], a1 + bs[1], a2 + bs[2], a3 + bs[3]}
			for j := 0; j < nch; j++ {
				out[orow+j*plane+ox] = a[j]
			}
		}
	}
}

// blockPlanes returns the offsets into a [b, outC, oh, ow] tensor of the
// ocBlock planes of image bi starting at channel oc0; planes past outC
// alias the block's first one (callers discard what they compute from
// them).
func blockPlanes(g *convGeom, bi, oc0 int) (off [ocBlock]int) {
	plane := g.oh * g.ow
	for j := range off {
		oc := oc0
		if oc0+j < g.outC {
			oc = oc0 + j
		}
		off[j] = (bi*g.outC + oc) * plane
	}
	return off
}

// convGradW accumulates, over the whole batch, the weight gradient of
// output-channel block ob × input-channel pair cp into dw ([outC,
// inC·k·k]), and — once per block, on pair 0 — the bias gradient into db.
// Each dw element receives its terms grad·x one at a time in ascending
// (bi, oy, ox) order on top of what dw already holds, which is the order
// MatMulTransAAcc walks the im2col rows in; db likewise.
//
// For one tap (ky, kx) the contributing output pixels of an image form a
// rectangle, so the inner loop runs branch-free along output rows with
// the 4 × 2 accumulators in registers; they are written back to dw
// between images, which keeps an image's planes cache-resident across
// the k·k taps without changing any element's order.
func convGradW(g *convGeom, x, grad, dw, db []float64, ob, cp int) {
	k, p, h, w, oh, ow := g.k, g.p, g.h, g.w, g.oh, g.ow
	taps := g.taps()
	oc0 := ob * ocBlock
	nch := min(ocBlock, g.outC-oc0)
	ci0 := 2 * cp
	ci1 := ci0 + 1
	paired := ci1 < g.inC
	if !paired {
		ci1 = ci0
	}
	for bi := 0; bi < g.b; bi++ {
		goff := blockPlanes(g, bi, oc0)
		if cp == 0 {
			convGradBias(grad, db[oc0:oc0+nch], goff, oh*ow)
		}
		xa := x[(bi*g.inC+ci0)*h*w : (bi*g.inC+ci0+1)*h*w]
		xb := x[(bi*g.inC+ci1)*h*w : (bi*g.inC+ci1+1)*h*w]
		for ky := 0; ky < k; ky++ {
			// Output rows oy whose input row oy+ky−p exists, i.e. the
			// clamp of the forward pass seen from the tap's side.
			oyLo, oyHi := clampTaps(ky, oh, p, h)
			for kx := 0; kx < k; kx++ {
				oxLo, oxHi := clampTaps(kx, ow, p, w)
				n := oxHi - oxLo
				if n <= 0 || oyHi <= oyLo {
					continue
				}
				t0 := (ci0*k+ky)*k + kx
				t1 := (ci1*k+ky)*k + kx
				var a [2 * ocBlock]float64
				for j := 0; j < nch; j++ {
					a[j] = dw[(oc0+j)*taps+t0]
					a[ocBlock+j] = dw[(oc0+j)*taps+t1]
				}
				a00, a10, a20, a30 := a[0], a[1], a[2], a[3]
				a01, a11, a21, a31 := a[4], a[5], a[6], a[7]
				for oy := oyLo; oy < oyHi; oy++ {
					xo := (oy+ky-p)*w + oxLo + kx - p
					x0s := xa[xo : xo+n]
					x1s := xb[xo : xo+n][:len(x0s)]
					o := oy*ow + oxLo
					g0 := grad[goff[0]+o : goff[0]+o+n][:len(x0s)]
					g1 := grad[goff[1]+o : goff[1]+o+n][:len(x0s)]
					g2 := grad[goff[2]+o : goff[2]+o+n][:len(x0s)]
					g3 := grad[goff[3]+o : goff[3]+o+n][:len(x0s)]
					for j, x0 := range x0s {
						x1 := x1s[j]
						v := g0[j]
						a00 += v * x0
						a01 += v * x1
						v = g1[j]
						a10 += v * x0
						a11 += v * x1
						v = g2[j]
						a20 += v * x0
						a21 += v * x1
						v = g3[j]
						a30 += v * x0
						a31 += v * x1
					}
				}
				a = [2 * ocBlock]float64{a00, a10, a20, a30, a01, a11, a21, a31}
				for j := 0; j < nch; j++ {
					dw[(oc0+j)*taps+t0] = a[j]
					if paired {
						dw[(oc0+j)*taps+t1] = a[ocBlock+j]
					}
				}
			}
		}
	}
}

// convGradBias adds one image's gradient planes (at offsets goff, n
// elements each) into db, one term at a time in ascending pixel order.
func convGradBias(grad, db []float64, goff [ocBlock]int, n int) {
	var s [ocBlock]float64
	copy(s[:], db)
	g0 := grad[goff[0] : goff[0]+n]
	g1 := grad[goff[1] : goff[1]+n][:len(g0)]
	g2 := grad[goff[2] : goff[2]+n][:len(g0)]
	g3 := grad[goff[3] : goff[3]+n][:len(g0)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for j, v := range g0 {
		s0 += v
		s1 += g1[j]
		s2 += g2[j]
		s3 += g3[j]
	}
	s = [ocBlock]float64{s0, s1, s2, s3}
	copy(db, s[:])
}

// convGradX computes the input-gradient planes of image bi for
// input-channel pair cp, overwriting them. For input pixel (iy, ix) the
// result is the sum, over the output pixels (oy, ox) that read it in
// ascending order, of the inner sums Σ_oc grad[oc, oy, ox]·w[oc, ci, ky,
// kx] taken over oc ascending from +0: MatMul's row of flat·W, then
// Col2Im's scatter-add. Ascending (oy, ox) at a fixed input pixel is
// descending (ky, kx), hence the reversed tap loops.
//
// The work is row-wise: for one input row and one tap, the contributing
// output pixels are a contiguous stretch of one output row, so the inner
// sums for the whole stretch are built a block of ocBlock channels at a
// time — carried between blocks in the scratch rows, starting from the
// read-only zeros row — and the last block adds them into the dx row.
//
// scratch is the calling worker's own 3·w floats: two rows of partial
// inner sums (one per input channel of the pair) and a sink for the
// second channel's row when inC is odd. zeros is w zeros nobody writes.
func convGradX(g *convGeom, grad, wt, dx, scratch, zeros []float64, bi, cp int) {
	k, p, h, w, oh, ow := g.k, g.p, g.h, g.w, g.oh, g.ow
	taps := g.taps()
	nob := g.ocBlocks()
	ci0 := 2 * cp
	ci1 := ci0 + 1
	paired := ci1 < g.inC
	if !paired {
		ci1 = ci0
	}
	for iy := 0; iy < h; iy++ {
		d0 := dx[((bi*g.inC+ci0)*h+iy)*w : ((bi*g.inC+ci0)*h+iy+1)*w]
		d1 := scratch[2*w : 3*w]
		if paired {
			d1 = dx[((bi*g.inC+ci1)*h+iy)*w : ((bi*g.inC+ci1)*h+iy+1)*w]
		}
		for j := range d0 {
			d0[j] = 0
		}
		for j := range d1 {
			d1[j] = 0
		}
		// ky, kx descending: oy = iy+p−ky and ox = ix+p−kx ascending.
		for ky := k - 1; ky >= 0; ky-- {
			oy := iy + p - ky
			if oy < 0 || oy >= oh {
				continue
			}
			for kx := k - 1; kx >= 0; kx-- {
				// Input columns ix with ox = ix+p−kx in [0, ow).
				ixLo, ixHi := max(0, kx-p), min(w, ow+kx-p)
				n := ixHi - ixLo
				if n <= 0 {
					continue
				}
				o := oy*ow + ixLo + p - kx
				t0 := (ci0*k+ky)*k + kx
				t1 := (ci1*k+ky)*k + kx
				src0, src1 := zeros[:n], zeros[:n]
				for ob := 0; ob < nob; ob++ {
					oc0 := ob * ocBlock
					goff := blockPlanes(g, bi, oc0)
					// Channels past outC alias a real plane; a zero
					// weight keeps them out of the sum.
					var w0, w1 [ocBlock]float64
					for j := 0; j < min(ocBlock, g.outC-oc0); j++ {
						w0[j] = wt[(oc0+j)*taps+t0]
						w1[j] = wt[(oc0+j)*taps+t1]
					}
					g0 := grad[goff[0]+o : goff[0]+o+n]
					g1 := grad[goff[1]+o : goff[1]+o+n][:len(g0)]
					g2 := grad[goff[2]+o : goff[2]+o+n][:len(g0)]
					g3 := grad[goff[3]+o : goff[3]+o+n][:len(g0)]
					s0, s1 := src0[:len(g0)], src1[:len(g0)]
					w00, w10, w20, w30 := w0[0], w0[1], w0[2], w0[3]
					w01, w11, w21, w31 := w1[0], w1[1], w1[2], w1[3]
					if ob == nob-1 {
						r0 := d0[ixLo:ixHi][:len(g0)]
						r1 := d1[ixLo:ixHi][:len(g0)]
						for j, v := range g0 {
							u0, u1 := s0[j], s1[j]
							u0 += v * w00
							u1 += v * w01
							v = g1[j]
							u0 += v * w10
							u1 += v * w11
							v = g2[j]
							u0 += v * w20
							u1 += v * w21
							v = g3[j]
							u0 += v * w30
							u1 += v * w31
							r0[j] += u0
							r1[j] += u1
						}
						break
					}
					r0 := scratch[:n][:len(g0)]
					r1 := scratch[w : w+n][:len(g0)]
					for j, v := range g0 {
						u0, u1 := s0[j], s1[j]
						u0 += v * w00
						u1 += v * w01
						v = g1[j]
						u0 += v * w10
						u1 += v * w11
						v = g2[j]
						u0 += v * w20
						u1 += v * w21
						v = g3[j]
						u0 += v * w30
						u1 += v * w31
						r0[j] = u0
						r1[j] = u1
					}
					src0, src1 = r0, r1
				}
			}
		}
	}
}
