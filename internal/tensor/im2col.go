package tensor

import "fmt"

// Im2ColShape returns the output spatial extent and column-matrix shape
// of an Im2Col lowering of a [batch, channels, height, width] input.
func Im2ColShape(b, c, h, w, kh, kw, stride, pad int) (outH, outW, rows, cols int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	return outH, outW, b * outH * outW, c * kh * kw
}

// Im2Col lowers a batch of images to a matrix so that a convolution becomes
// a single matrix multiplication.
//
// Input x has shape [batch, channels, height, width]. The result has shape
// [batch·outH·outW, channels·kh·kw] where outH = (height+2·pad−kh)/stride+1
// and similarly for outW. Padding is zero-padding.
func Im2Col(x *Tensor, kh, kw, stride, pad int) (*Tensor, int, int, error) {
	if x.Rank() != 4 {
		return nil, 0, 0, fmt.Errorf("%w: im2col requires rank 4, got %v", ErrShape, x.shape)
	}
	b, c := x.shape[0], x.shape[1]
	outH, outW, rows, colStride := Im2ColShape(b, c, x.shape[2], x.shape[3], kh, kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: im2col kernel %dx%d too large for %dx%d input with pad %d", ErrShape, kh, kw, x.shape[2], x.shape[3], pad)
	}
	cols := New(rows, colStride)
	if _, _, err := Im2ColInto(cols, x, kh, kw, stride, pad); err != nil {
		return nil, 0, 0, err
	}
	return cols, outH, outW, nil
}

// Im2ColInto is Im2Col writing into a caller-owned column matrix (as
// obtained from a Scratch), so conv layers stop allocating a fresh
// b·outH·outW × c·kh·kw matrix every forward pass. Every element of dst
// is overwritten (padding positions are written as zeros), so dst may
// hold stale data.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) (int, int, error) {
	if x.Rank() != 4 {
		return 0, 0, fmt.Errorf("%w: im2col requires rank 4, got %v", ErrShape, x.shape)
	}
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH, outW, rows, colStride := Im2ColShape(b, c, h, w, kh, kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		return 0, 0, fmt.Errorf("%w: im2col kernel %dx%d too large for %dx%d input with pad %d", ErrShape, kh, kw, h, w, pad)
	}
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != colStride {
		return 0, 0, fmt.Errorf("%w: im2col destination %v, want [%d %d]", ErrShape, dst.shape, rows, colStride)
	}
	dd, xd := dst.data, x.data
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				row := ((bi*outH+oy)*outW + ox) * colStride
				if iy0, ix0 := oy*stride-pad, ox*stride-pad; iy0 >= 0 && iy0+kh <= h && ix0 >= 0 && ix0+kw <= w {
					// Interior patch: no tap falls outside the image, so
					// each (ci, ky) is kw contiguous input elements.
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							src := ((bi*c+ci)*h+iy0+ky)*w + ix0
							dst := row + (ci*kh+ky)*kw
							d := dd[dst : dst+kw]
							for kx, v := range xd[src : src+kw] {
								d[kx] = v
							}
						}
					}
					continue
				}
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							dst := row + (ci*kh+ky)*kw + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dd[dst] = xd[((bi*c+ci)*h+iy)*w+ix]
							} else {
								dd[dst] = 0
							}
						}
					}
				}
			}
		}
	}
	return outH, outW, nil
}

// Col2Im accumulates a column matrix (as produced by Im2Col for an input of
// shape [batch, channels, height, width]) back into image space. Overlapping
// patches sum, which is exactly the gradient of Im2Col.
func Col2Im(cols *Tensor, batch, channels, height, width, kh, kw, stride, pad int) (*Tensor, error) {
	x := New(batch, channels, height, width)
	if err := Col2ImInto(x, cols, kh, kw, stride, pad); err != nil {
		return nil, err
	}
	return x, nil
}

// Col2ImInto is Col2Im accumulating into a caller-owned image tensor of
// shape [batch, channels, height, width]; dst is zeroed first, so it
// may hold stale data.
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) error {
	if dst.Rank() != 4 {
		return fmt.Errorf("%w: col2im destination requires rank 4, got %v", ErrShape, dst.shape)
	}
	batch, channels, height, width := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	outH, outW, rows, colStride := Im2ColShape(batch, channels, height, width, kh, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != colStride {
		return fmt.Errorf("%w: col2im got %v, want [%d %d]", ErrShape, cols.shape, rows, colStride)
	}
	dst.Zero()
	dd, cd := dst.data, cols.data
	for bi := 0; bi < batch; bi++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				row := ((bi*outH+oy)*outW + ox) * colStride
				if iy0, ix0 := oy*stride-pad, ox*stride-pad; iy0 >= 0 && iy0+kh <= height && ix0 >= 0 && ix0+kw <= width {
					// Interior patch, as in Im2ColInto: the same adds in
					// the same order, without a bounds branch each.
					for ci := 0; ci < channels; ci++ {
						for ky := 0; ky < kh; ky++ {
							to := ((bi*channels+ci)*height+iy0+ky)*width + ix0
							from := row + (ci*kh+ky)*kw
							d := dd[to : to+kw]
							for kx, v := range cd[from : from+kw] {
								d[kx] += v
							}
						}
					}
					continue
				}
				for ci := 0; ci < channels; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= height {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= width {
								continue
							}
							dd[((bi*channels+ci)*height+iy)*width+ix] += cd[row+(ci*kh+ky)*kw+kx]
						}
					}
				}
			}
		}
	}
	return nil
}
