package nn

// The AVX2 bodies of conv_kernels.go's micro-kernels: the Go functions
// below check the slices and pass their pointers to the assembly of
// conv_amd64.s. Each lane of a vector instruction does what one scalar
// statement of the Go body does, in the same order: VMULPD then VADDPD,
// never a fused multiply-add.

// convInteriorOct is convInteriorPair for the eight interior pixels
// whose windows start at xb[xo], …, xb[xo+7], on the AVX2 body: sums[i]
// gets pixel i's four channels, each the same chain as the pair's.
func convInteriorOct(g *convGeom, xb []float64, wb [][ocBlock]float64, sums *[8][ocBlock]float64, xo, kyLo, kyHi int) {
	xs, ws := octWindow(g, xb, wb, xo, kyLo, kyHi)
	convOctAVX2(sums, nil, 0, nil, &xs[0], &ws[0], g.inC, kyHi-kyLo, g.k, g.w, g.h*g.w)
}

// convInteriorOctStore is convInteriorOct for a block of ocBlock real
// channels that writes the outputs itself: pixel i's sum for channel j,
// plus bs[j], goes to out[j·plane+i].
func convInteriorOctStore(g *convGeom, xb []float64, wb [][ocBlock]float64, bs *[ocBlock]float64, out []float64, plane, xo, kyLo, kyHi int) {
	xs, ws := octWindow(g, xb, wb, xo, kyLo, kyHi)
	out = out[:(ocBlock-1)*plane+8]
	convOctAVX2(nil, &out[0], plane, bs, &xs[0], &ws[0], g.inC, kyHi-kyLo, g.k, g.w, g.h*g.w)
}

// octWindow returns what an oct reads: the input from the first pixel's
// window to the last's, over every channel, and the weights of rows
// [kyLo, kyHi) of every channel.
func octWindow(g *convGeom, xb []float64, wb [][ocBlock]float64, xo, kyLo, kyHi int) ([]float64, [][ocBlock]float64) {
	k, h, w := g.k, g.h, g.w
	return xb[xo+kyLo*w : xo+((g.inC-1)*h+kyHi-1)*w+k+7], wb[kyLo*k : ((g.inC-1)*k+kyHi)*k]
}

// gradXQuads runs convGradX's inner loop over the whole quads of the
// len(g0) pixels of rows r0…g3 on the AVX2 body and returns how many
// pixels it took.
func gradXQuads(r0, r1, s0, s1, g0, g1, g2, g3 []float64, w *[2][ocBlock]float64, add bool) int {
	q := len(g0) &^ 3
	if q == 0 {
		return 0
	}
	_, _, _, _, _, _ = r0[q-1], r1[q-1], s0[q-1], s1[q-1], g1[q-1], g2[q-1]
	_ = g3[q-1]
	gradXQuadsAVX2(&r0[0], &r1[0], &s0[0], &s1[0], &g0[0], &g1[0], &g2[0], &g3[0], w, q, add)
	return q
}

// rowsAVX2 is rows on the AVX2 body: three taps at once when a holds
// tapBlock of them, else one at a time.
func (v *gradWView) rowsAVX2(a [][2][ocBlock]float64, ky0, y0, y1 int) {
	g := v.g
	ny, n := y1-y0, v.n
	o := y0*g.ow + v.oxLo
	xo := (y0+ky0-g.p)*g.w + v.oxLo + v.kx - g.p
	gs := v.gp[o : o+(ny-1)*g.ow+n]
	if len(a) == tapBlock {
		span := (ny+tapBlock-2)*g.w + n
		x0s, x1s := v.xa[xo:xo+span], v.xb[xo:xo+span]
		gradWTap3AVX2((*[tapBlock][2][ocBlock]float64)(a), &gs[0], &x0s[0], &x1s[0], n, ny, g.ow, g.w)
		return
	}
	for t := range a {
		xt := xo + t*g.w
		span := (ny-1)*g.w + n
		x0s, x1s := v.xa[xt:xt+span], v.xb[xt:xt+span]
		gradWTapAVX2(&a[t], &gs[0], &x0s[0], &x1s[0], n, ny, g.ow, g.w)
	}
}

// convOctAVX2 is convInteriorPair for eight pixels: pixel i's four
// channel sums, from +0, of the window at x+i over inC channels xPlane
// floats apart, rows rows xRow floats apart and k taps, against w's
// rows×k weights per channel, k·k apart. With out nil they go to
// sums[i]; otherwise channel j's, plus bias[j], go to out[j·plane+i].
//
//go:noescape
func convOctAVX2(sums *[8][ocBlock]float64, out *float64, plane int, bias *[ocBlock]float64, x *float64, w *[ocBlock]float64, inC, rows, k, xRow, xPlane int)

// gradXQuadsAVX2 is convGradX's inner loop over n (a multiple of four)
// pixels: u = s + g0·w[c][0] + g1·w[c][1] + g2·w[c][2] + g3·w[c][3] for
// channel c of the pair, then r = u, or r += u when add is set.
//
//go:noescape
func gradXQuadsAVX2(r0, r1, s0, s1, g0, g1, g2, g3 *float64, w *[2][ocBlock]float64, n int, add bool)

// gradWTapAVX2 is convGradW's loop over one tap's rectangle of rows×n
// output pixels: acc[0] += gp·x0 and acc[1] += gp·x1 pixel by pixel,
// rows gRow packed pixels and xRow input floats apart.
//
//go:noescape
func gradWTapAVX2(acc *[2][ocBlock]float64, gp *[ocBlock]float64, x0, x1 *float64, n, rows, gRow, xRow int)

// gradWTap3AVX2 is gradWTapAVX2 for three taps of one kernel column at
// once: tap t reads the input rows t·xRow floats further on and adds into
// acc[t].
//
//go:noescape
func gradWTap3AVX2(acc *[tapBlock][2][ocBlock]float64, gp *[ocBlock]float64, x0, x1 *float64, n, rows, gRow, xRow int)
