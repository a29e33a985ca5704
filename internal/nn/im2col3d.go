package nn

import "mgdiffnet/internal/tensor"

// Im2Col3D unrolls the sliding windows of an NCDHW input into a
// [Cin·K³, N·Do·Ho·Wo] matrix so that volumetric convolution becomes one
// GEMM — the lowering behind every Conv3D pass. Out-of-bounds
// (padding) positions contribute zeros. For the stride-1 case the
// innermost transfer is a single contiguous copy per output row.
//
// Conv3D does not materialize this matrix whole: it streams depth slabs
// of it through a cache-resident scratch buffer (see im2colSlab).
// The full-matrix form exists for its algebraic contract — tests pair it
// with Col2Im3D as an adjoint — and for callers that want the classical
// one-shot lowering.
func Im2Col3D(x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	d := x.Dim(2)
	do := (d+2*pad-k)/stride + 1
	ho := (x.Dim(3)+2*pad-k)/stride + 1
	wo := (x.Dim(4)+2*pad-k)/stride + 1
	cols := tensor.New(x.Dim(1)*k*k*k, x.Dim(0)*do*ho*wo)
	im2colSlab(cols, x, k, stride, pad, 0, do)
	return cols
}

// im2colSlab fills a pre-zeroed [Cin·K³, N·(ozHi−ozLo)·Ho·Wo] matrix with
// the unrolled windows whose output depth lies in [ozLo, ozHi). Slabbing
// is what keeps the lowering cache-resident on megavoxel volumes: the full
// column matrix of a 64³ pass runs to hundreds of megabytes, while a slab
// reused across iterations stays in the last-level cache.
func im2colSlab(cols, x *tensor.Tensor, k, stride, pad, ozLo, ozHi int) {
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	dz := ozHi - ozLo
	k3 := k * k * k
	cd, xd := cols.Data, x.Data
	colW := n * dz * ho * wo

	// One job per (unrolled row, sample, output z-plane): the job count
	// scales with the volume, not just the channel count, so the unroll
	// fans out even at the paper's small Cin. Each job owns a disjoint
	// stretch of its column row — race-free by construction.
	tensor.ParallelFor(ci*k3*n*dz, func(job int) {
		row := job / (n * dz)
		rem := job % (n * dz)
		bn := rem / dz
		ozl := rem % dz
		cin := row / k3
		krem := row % k3
		kz := krem / (k * k)
		ky := (krem / k) % k
		kx := krem % k

		iz := (ozLo+ozl)*stride - pad + kz
		if iz < 0 || iz >= d {
			return // zeros already there
		}
		base := row * colW
		xBase := (bn*ci+cin)*d*h*w + iz*h*w
		// Valid ox range for the stride-1 contiguous fast path.
		oxLo, oxHi := 0, wo
		if stride == 1 {
			oxLo = max(0, pad-kx)
			oxHi = min(wo, w+pad-kx)
		}
		for oy := 0; oy < ho; oy++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= h {
				continue
			}
			outRow := base + ((bn*dz+ozl)*ho+oy)*wo
			xRow := xBase + iy*w
			if stride == 1 {
				if oxHi > oxLo {
					src := xRow + oxLo - pad + kx
					copy(cd[outRow+oxLo:outRow+oxHi], xd[src:src+oxHi-oxLo])
				}
				continue
			}
			for ox := 0; ox < wo; ox++ {
				ix := ox*stride - pad + kx
				if ix < 0 || ix >= w {
					continue
				}
				cd[outRow+ox] = xd[xRow+ix]
			}
		}
	})
}

// Col2Im3D is the adjoint of Im2Col3D: it scatters a [Cin·K³, N·Do·Ho·Wo]
// column matrix back onto the NCDHW voxel grid, summing overlapping
// contributions. It turns the GEMM gradient Wᵀ·gradOut into the input
// gradient of the volumetric convolution.
func Col2Im3D(cols *tensor.Tensor, n, ci, d, h, w, k, stride, pad int) *tensor.Tensor {
	do := (d+2*pad-k)/stride + 1
	out := tensor.New(n, ci, d, h, w)
	col2imSlab(out, cols, k, stride, pad, 0, do)
	return out
}

// col2imSlab adds the contributions of a [Cin·K³, N·(ozHi−ozLo)·Ho·Wo]
// column slab onto the voxel grid. Slabs from consecutive depth ranges
// overlap on the input grid (the receptive fields straddle slab
// boundaries); the += makes the slabbed backward pass sum them exactly
// like a one-shot scatter.
//
// The loop is organized in gather form — one job per destination row
// (sample, channel, iz, iy) — so every worker owns disjoint output rows
// and the job count scales with the volume rather than the channel count.
// Per destination element the terms arrive in a fixed order: kz
// descending, i.e. oz ascending, then ky and kx ascending. A slab seam
// only splits that sequence between two calls, so the sum is independent
// of the slab depth (and hence of the batch size that sets it) as well as
// of the worker count.
func col2imSlab(out, cols *tensor.Tensor, k, stride, pad, ozLo, ozHi int) {
	n, ci, d, h, w := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3), out.Dim(4)
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	dz := ozHi - ozLo
	cd, od := cols.Data, out.Data
	colW := n * dz * ho * wo
	tensor.ParallelFor(n*ci*d*h, func(job int) {
		iy := job % h
		rest := job / h
		iz := rest % d
		rest /= d
		cin := rest % ci
		bn := rest / ci
		dstRow := ((bn*ci+cin)*d+iz)*h*w + iy*w
		for kz := k - 1; kz >= 0; kz-- {
			ozNum := iz + pad - kz
			if ozNum < 0 || ozNum%stride != 0 {
				continue
			}
			oz := ozNum / stride
			if oz < ozLo || oz >= ozHi {
				continue
			}
			for ky := 0; ky < k; ky++ {
				oyNum := iy + pad - ky
				if oyNum < 0 || oyNum%stride != 0 {
					continue
				}
				oy := oyNum / stride
				if oy >= ho {
					continue
				}
				for kx := 0; kx < k; kx++ {
					row := ((cin*k+kz)*k+ky)*k + kx
					srcRow := row*colW + ((bn*dz+oz-ozLo)*ho+oy)*wo
					if stride == 1 {
						oxLo := max(0, pad-kx)
						oxHi := min(wo, w+pad-kx)
						dst := dstRow - pad + kx
						for ox := oxLo; ox < oxHi; ox++ {
							od[dst+ox] += cd[srcRow+ox]
						}
						continue
					}
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

// slabLowering is the depth-slab GEMM lowering state that Conv3D and
// ConvTranspose3D share: views over a Scratch the layer may share with
// other layers (see ShareScratch), reused across passes, and cached views
// of the weight matrix and its gradient. A convolution runs convSlab
// forward and adjointSlab backward; a transposed convolution, being the
// adjoint of a convolution from its output grid to its input grid, runs
// them the other way round.
type slabLowering struct {
	scratch                      *Scratch
	colsBuf, matBuf, gradColsBuf gemmBuf
	wMatView, gwView             *tensor.Tensor
}

func (l *slabLowering) useScratch(s *Scratch) { l.scratch = s }

// convSlab computes output depth slab [z0, z1) of the (k, s, p)
// convolution of x with the [rows, Cin·K³] matrix wMat: im2col of the
// slab, one GEMM, and the product scattered into out's NCDHW planes plus
// bias (none when bias is nil). It returns the slab's column matrix,
// valid until the layer's next scratch use.
func (l *slabLowering) convSlab(out, x, wMat *tensor.Tensor, bias []float64, k, s, p, z0, z1 int) *tensor.Tensor {
	cols := l.colsBuf.get(&l.scratch.cols, wMat.Dim(1), out.Dim(0)*(z1-z0)*out.Dim(3)*out.Dim(4), true)
	im2colSlab(cols, x, k, s, p, z0, z1)
	prod := l.matBuf.get(&l.scratch.prod, wMat.Dim(0), cols.Dim(1), true)
	tensor.MatMulInto(wMat, cols, prod)
	scatterSlab(out, prod, bias, z0, z1)
	return cols
}

// adjointSlab is convSlab's adjoint for depth slab [z0, z1) of g, an
// NCDHW tensor on the convolution's output grid: g's slab is gathered
// channel-major into gMat (its per-channel sums added to gb unless gb is
// nil), and col2im scatter-adds wMatᵀ·gMat onto out, on the input grid.
// It returns gMat, valid until the layer's next scratch use.
func (l *slabLowering) adjointSlab(out, g, wMat *tensor.Tensor, gb []float64, k, s, p, z0, z1 int) *tensor.Tensor {
	slabCols := g.Dim(0) * (z1 - z0) * g.Dim(3) * g.Dim(4)
	gMat := l.matBuf.get(&l.scratch.prod, wMat.Dim(0), slabCols, false) // fully overwritten
	gatherSlab(gMat, g, gb, z0, z1)
	gCols := l.gradColsBuf.get(&l.scratch.gradCols, wMat.Dim(1), slabCols, true)
	tensor.MatMulTransAInto(wMat, gMat, gCols)
	col2imSlab(out, gCols, k, s, p, z0, z1)
	return gMat
}

// gatherSlab copies depth slab [z0, z1) of an [N, C, D, H, W] tensor into
// the [C, N·(z1−z0)·H·W] channel-major matrix the GEMM kernels contract
// over, adding each channel's sum to gb[c] unless gb is nil.
func gatherSlab(dst, src *tensor.Tensor, gb []float64, z0, z1 int) {
	n, c, d, plane := src.Dim(0), src.Dim(1), src.Dim(2), src.Dim(3)*src.Dim(4)
	slabVol := (z1 - z0) * plane
	dd, sd := dst.Data, src.Data
	tensor.ParallelFor(c, func(ch int) {
		sum := 0.0
		for bn := 0; bn < n; bn++ {
			s := ((bn*c+ch)*d + z0) * plane
			row := sd[s : s+slabVol]
			copy(dd[(ch*n+bn)*slabVol:], row)
			if gb != nil {
				for _, v := range row {
					sum += v
				}
			}
		}
		if gb != nil {
			gb[ch] += sum
		}
	})
}

// scatterSlab is gatherSlab's inverse: it writes a [C, N·(z1−z0)·H·W]
// matrix into depth slab [z0, z1) of an [N, C, D, H, W] tensor, adding
// bias[c] to channel c unless bias is nil.
func scatterSlab(dst, src *tensor.Tensor, bias []float64, z0, z1 int) {
	n, c, d, plane := dst.Dim(0), dst.Dim(1), dst.Dim(2), dst.Dim(3)*dst.Dim(4)
	slabVol := (z1 - z0) * plane
	dd, sd := dst.Data, src.Data
	tensor.ParallelFor(c, func(ch int) {
		for bn := 0; bn < n; bn++ {
			o := ((bn*c+ch)*d + z0) * plane
			row := dd[o : o+slabVol]
			srow := sd[(ch*n+bn)*slabVol:][:slabVol]
			if bias == nil {
				copy(row, srow)
				continue
			}
			for i := range row {
				row[i] = srow[i] + bias[ch]
			}
		}
	})
}

// conv3dSlabElems bounds the per-slab column matrix at 2²¹ float64s
// (16 MiB): small enough to sit in a last-level cache slice while the GEMM
// streams it repeatedly, large enough that slab setup is amortized. Memory
// use of the lowering is O(this bound), not O(volume).
const conv3dSlabElems = 1 << 21

// conv3dSlabDepth returns how many output z-planes fit one column slab.
func conv3dSlabDepth(ciK3, n, do, ho, wo int) int {
	dz := conv3dSlabElems / (ciK3 * n * ho * wo)
	return max(1, min(do, dz))
}
