package nn

import "mgdiffnet/internal/tensor"

// Scratch is the backing storage of the GEMM convolution lowering: the
// column, product and gradient-column matrices. Every GEMM-lowered layer
// owns one, and a network hands one Scratch to all of its convolutions
// (ShareScratch), so the storage is sized by the largest layer instead of
// the sum of all layers. Sharing is sound because nothing in the scratch
// outlives a Forward or Backward call; it only requires that layers
// sharing a Scratch never run at the same time.
type Scratch struct{ cols, prod, gradCols []float64 }

// scratchUser is implemented by the GEMM-lowered convolution layers.
type scratchUser interface{ useScratch(s *Scratch) }

// ShareScratch points l at s when l is a GEMM-lowered convolution;
// other layers are left alone.
func ShareScratch(l Layer, s *Scratch) {
	if v, ok := l.(scratchUser); ok {
		v.useScratch(s)
	}
}

// gemmBuf is one layer's cached [rows, cols] view over a Scratch slot, so
// steady-state passes with stable shapes allocate nothing even while other
// layers grow the shared storage underneath.
type gemmBuf struct{ view *tensor.Tensor }

// get returns a [rows, cols] view over the slot *data, growing the slot
// only when the request exceeds it. Fresh storage is already zero; reused
// storage holds whatever the last user of the slot left, and is zeroed on
// request. Callers that pass zero=false must overwrite every element.
func (b *gemmBuf) get(data *[]float64, rows, cols int, zero bool) *tensor.Tensor {
	need := rows * cols
	fresh := false
	if cap(*data) < need {
		*data = make([]float64, need)
		fresh = true
	}
	if b.view == nil || !b.view.ShapeIs(rows, cols) {
		b.view = tensor.FromSlice((*data)[:need], rows, cols)
	} else {
		b.view.Rebase((*data)[:need]) // the slot may have moved since the last call
	}
	if zero && !fresh {
		b.view.Zero()
	}
	return b.view
}

// paramMat returns a cached [rows, cols] matrix view over data,
// re-pointing the cached view when the backing slice moved (nn.Arena
// re-bases parameter storage after construction).
func paramMat(view **tensor.Tensor, data []float64, rows, cols int) *tensor.Tensor {
	if *view == nil {
		*view = tensor.FromSlice(data, rows, cols)
	} else {
		(*view).Rebase(data)
	}
	return *view
}

// Im2Col2D unrolls the sliding windows of an NCHW input into a
// [Cin·K·K, N·Ho·Wo] matrix so that convolution becomes one GEMM — the
// lowering used by most production deep-learning engines. Out-of-bounds
// (padding) positions contribute zeros.
func Im2Col2D(x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	cols := tensor.New(ci*k*k, n*ho*wo)
	im2col2DInto(cols, x, k, stride, pad)
	return cols
}

// im2col2DInto fills a pre-zeroed [Cin·K·K, N·Ho·Wo] matrix.
func im2col2DInto(cols, x *tensor.Tensor, k, stride, pad int) {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	cd, xd := cols.Data, x.Data
	colW := n * ho * wo

	tensor.ParallelFor(ci*k*k, func(row int) {
		cin := row / (k * k)
		rem := row % (k * k)
		ky := rem / k
		kx := rem % k
		base := row * colW
		for bn := 0; bn < n; bn++ {
			xBase := (bn*ci + cin) * h * w
			for oy := 0; oy < ho; oy++ {
				iy := oy*stride - pad + ky
				outRow := base + (bn*ho+oy)*wo
				if iy < 0 || iy >= h {
					continue // zeros already there
				}
				xRow := xBase + iy*w
				for ox := 0; ox < wo; ox++ {
					ix := ox*stride - pad + kx
					if ix < 0 || ix >= w {
						continue
					}
					cd[outRow+ox] = xd[xRow+ix]
				}
			}
		}
	})
}

// Col2Im2D is the adjoint of Im2Col2D: it scatters a [Cin·K·K, N·Ho·Wo]
// column matrix back onto the NCHW image grid, summing overlapping
// contributions. It turns the GEMM gradient Wᵀ·gradOut into the input
// gradient of the convolution.
func Col2Im2D(cols *tensor.Tensor, n, ci, h, w, k, stride, pad int) *tensor.Tensor {
	out := tensor.New(n, ci, h, w)
	col2im2DInto(out, cols, k, stride, pad)
	return out
}

// col2im2DInto scatter-accumulates into a pre-zeroed NCHW tensor.
func col2im2DInto(out, cols *tensor.Tensor, k, stride, pad int) {
	n, ci, h, w := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	cd, od := cols.Data, out.Data
	colW := n * ho * wo
	// Parallel over channels: each channel's k·k rows scatter only into
	// that channel's image plane, so channels are independent.
	tensor.ParallelFor(ci, func(cin int) {
		for rem := 0; rem < k*k; rem++ {
			row := cin*k*k + rem
			ky := rem / k
			kx := rem % k
			base := row * colW
			for bn := 0; bn < n; bn++ {
				imgBase := (bn*ci + cin) * h * w
				for oy := 0; oy < ho; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					srcRow := base + (bn*ho+oy)*wo
					dstRow := imgBase + iy*w
					for ox := 0; ox < wo; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						od[dstRow+ix] += cd[srcRow+ox]
					}
				}
			}
		}
	})
}

// chanMajor reorders an [N, C, R] tensor (R = flattened spatial extent)
// into the [C, N·R] matrix layout the GEMM kernels contract over.
func chanMajor(dst *tensor.Tensor, src []float64, n, c, r int) {
	for bn := 0; bn < n; bn++ {
		for ch := 0; ch < c; ch++ {
			s := (bn*c + ch) * r
			d := ch*(n*r) + bn*r
			copy(dst.Data[d:d+r], src[s:s+r])
		}
	}
}

// biasGrad adds to gb the per-channel sums of an [n, co, vol] output
// gradient.
func biasGrad(gb, gd []float64, n, co, vol int) {
	for oc := 0; oc < co; oc++ {
		sum := 0.0
		for bn := 0; bn < n; bn++ {
			base := (bn*co + oc) * vol
			for i := 0; i < vol; i++ {
				sum += gd[base+i]
			}
		}
		gb[oc] += sum
	}
}
