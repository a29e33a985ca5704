package nn

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// Conv3D is a 3D cross-correlation layer over NCDHW tensors with zero
// padding. Weight layout is [Cout, Cin, KD, KH, KW]. It is the volumetric
// kernel behind the paper's megavoxel 3D DiffNet.
//
// Forward and Backward lower depth slabs of the input to im2col+GEMM at
// every volume; the direct 7-deep loops survive only as the test oracle
// (Conv3DDirect). Each output element accumulates its terms in a fixed
// order whatever the slab depth, batch size or worker count, so a slab of
// a domain computes bit-identically to the same rows of the whole domain.
//
// The lowering streams through a Scratch that the layer may share with
// other layers (see ShareScratch), so a Conv3D — and hence any network
// containing one — must not run concurrent Forward calls on a shared
// instance, not even with train=false. Clone the network per goroutine
// instead, as dist.SpatialInference and dist.ParallelTrainer do.
type Conv3D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	in *tensor.Tensor
	// GEMM-lowering views over the (possibly shared) scratch, reused
	// across passes (see im2colSlab), and cached weight-matrix views.
	scratch                       *Scratch
	colsBuf, prodBuf, gradColsBuf gemmBuf
	wMatView, gwView              *tensor.Tensor
	fwd, bwd                      outBuf
}

func (c *Conv3D) setBufferReuse(on bool) { c.fwd.on, c.bwd.on = on, on }
func (c *Conv3D) useScratch(s *Scratch)  { c.scratch = s }

// NewConv3D builds a cubic-kernel 3D convolution with He initialization.
func NewConv3D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv3D {
	c := &Conv3D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", outCh, inCh, kernel, kernel, kernel),
		B:           NewParam(name+".B", outCh),
		scratch:     new(Scratch),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel*kernel)
	return c
}

// OutSize returns the spatial output size for an input extent n.
func (c *Conv3D) OutSize(n int) int { return (n+2*c.Pad-c.Kernel)/c.Stride + 1 }

// Forward implements Layer: per depth slab, im2col and one GEMM against
// the [Cout, Cin·K³] weight matrix, scattered into NCDHW with the bias.
func (c *Conv3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 5, "Conv3D")
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	if ci != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ci))
	}
	do, ho, wo := c.OutSize(d), c.OutSize(h), c.OutSize(w)
	if do <= 0 || ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: Conv3D output collapsed for input %dx%dx%d kernel %d stride %d pad %d", d, h, w, c.Kernel, c.Stride, c.Pad))
	}
	if train {
		c.in = x
	}
	k, s, p := c.Kernel, c.Stride, c.Pad
	ciK3 := ci * k * k * k
	co := c.OutChannels
	dz := conv3dSlabDepth(ciK3, n, do, ho, wo)

	wMat := paramMat(&c.wMatView, c.W.Data.Data, co, ciK3)
	out := c.fwd.get(n, co, do, ho, wo)
	od, bd := out.Data, c.B.Data.Data

	for z0 := 0; z0 < do; z0 += dz {
		z1 := min(z0+dz, do)
		slabVol := (z1 - z0) * ho * wo
		cols := c.colsBuf.get(&c.scratch.cols, ciK3, n*slabVol, true)
		im2colSlab(cols, x, k, s, p, z0, z1)
		prod := c.prodBuf.get(&c.scratch.prod, co, n*slabVol, true)
		tensor.MatMulInto(wMat, cols, prod) // [Cout, N·dz·Ho·Wo]

		// Scatter the slab product into NCDHW order and add the bias.
		pd := prod.Data
		tensor.ParallelFor(co, func(oc int) {
			for bn := 0; bn < n; bn++ {
				src := (oc*n + bn) * slabVol
				dst := ((bn*co+oc)*do + z0) * ho * wo
				row := od[dst : dst+slabVol]
				prow := pd[src : src+slabVol]
				for i := range row {
					row[i] = prow[i] + bd[oc]
				}
			}
		})
	}
	return out
}

// Backward implements Layer by the same lowering, streamed over the same
// depth slabs as Forward: gradW += gradOut·colsᵀ, gradB += row sums, and
// gradX = col2im(Wᵀ·gradOut). The transposed products run through
// tensor.MatMulTransB / tensor.MatMulTransA, so no explicit transpose is
// ever materialized.
func (c *Conv3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.in
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k, s, p := c.Kernel, c.Stride, c.Pad
	do, ho, wo := gradOut.Dim(2), gradOut.Dim(3), gradOut.Dim(4)
	ci, co := c.InChannels, c.OutChannels
	ciK3 := ci * k * k * k
	dz := conv3dSlabDepth(ciK3, n, do, ho, wo)

	wMat := paramMat(&c.wMatView, c.W.Data.Data, co, ciK3)
	gw := paramMat(&c.gwView, c.W.Grad.Data, co, ciK3) // accumulates across slabs
	gb := c.B.Grad.Data
	gin := c.bwd.getZero(n, ci, d, h, w) // col2imSlab scatter-adds into it
	gd := gradOut.Data

	for z0 := 0; z0 < do; z0 += dz {
		z1 := min(z0+dz, do)
		slabVol := (z1 - z0) * ho * wo

		// Reorder the gradOut slab from [N, Cout, dz·Ho·Wo] into
		// [Cout, N·dz·Ho·Wo] and fold the bias row sums in one pass.
		gMat := c.prodBuf.get(&c.scratch.prod, co, n*slabVol, false) // fully overwritten below
		gm := gMat.Data
		tensor.ParallelFor(co, func(oc int) {
			sum := 0.0
			for bn := 0; bn < n; bn++ {
				src := ((bn*co+oc)*do + z0) * ho * wo
				dst := (oc*n + bn) * slabVol
				copy(gm[dst:dst+slabVol], gd[src:src+slabVol])
				for _, g := range gd[src : src+slabVol] {
					sum += g
				}
			}
			gb[oc] += sum
		})

		cols := c.colsBuf.get(&c.scratch.cols, ciK3, n*slabVol, true)
		im2colSlab(cols, x, k, s, p, z0, z1)
		tensor.MatMulTransBInto(gMat, cols, gw)

		// gradX slab: col2im(Wᵀ · gMat), scatter-added into gin.
		gCols := c.gradColsBuf.get(&c.scratch.gradCols, ciK3, n*slabVol, true)
		tensor.MatMulTransAInto(wMat, gMat, gCols)
		col2imSlab(gin, gCols, k, s, p, z0, z1)
	}
	return gin
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose3D is a 3D transposed convolution over NCDHW tensors.
// Weight layout is [Cin, Cout, KD, KH, KW].
type ConvTranspose3D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	in       *tensor.Tensor
	fwd, bwd outBuf
}

func (c *ConvTranspose3D) setBufferReuse(on bool) { c.fwd.on, c.bwd.on = on, on }

// NewConvTranspose3D builds a cubic-kernel 3D transpose convolution.
func NewConvTranspose3D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *ConvTranspose3D {
	c := &ConvTranspose3D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", inCh, outCh, kernel, kernel, kernel),
		B:           NewParam(name+".B", outCh),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel*kernel)
	return c
}

// OutSize returns the spatial output size for an input extent n.
func (c *ConvTranspose3D) OutSize(n int) int { return (n-1)*c.Stride - 2*c.Pad + c.Kernel }

// Forward implements Layer.
func (c *ConvTranspose3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 5, "ConvTranspose3D")
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	if ci != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ci))
	}
	do, ho, wo := c.OutSize(d), c.OutSize(h), c.OutSize(w)
	if train {
		c.in = x
	}
	out := c.fwd.get(n, c.OutChannels, do, ho, wo)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	wd, xd, od, bd := c.W.Data.Data, x.Data, out.Data, c.B.Data.Data

	tensor.ParallelFor(n*co, func(job int) {
		bn := job / co
		oc := job % co
		outBase := (bn*co + oc) * do * ho * wo
		for oz := 0; oz < do; oz++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					acc := bd[oc]
					for cin := 0; cin < ci; cin++ {
						wBase := (((cin*co + oc) * k) * k) * k
						xBase := (bn*ci + cin) * d * h * w
						for kz := 0; kz < k; kz++ {
							izNum := oz + p - kz
							if izNum < 0 || izNum%s != 0 {
								continue
							}
							iz := izNum / s
							if iz >= d {
								continue
							}
							for ky := 0; ky < k; ky++ {
								iyNum := oy + p - ky
								if iyNum < 0 || iyNum%s != 0 {
									continue
								}
								iy := iyNum / s
								if iy >= h {
									continue
								}
								for kx := 0; kx < k; kx++ {
									ixNum := ox + p - kx
									if ixNum < 0 || ixNum%s != 0 {
										continue
									}
									ix := ixNum / s
									if ix >= w {
										continue
									}
									acc += wd[wBase+(kz*k+ky)*k+kx] * xd[xBase+(iz*h+iy)*w+ix]
								}
							}
						}
					}
					od[outBase+(oz*ho+oy)*wo+ox] = acc
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (c *ConvTranspose3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.in
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	do, ho, wo := grad.Dim(2), grad.Dim(3), grad.Dim(4)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	gd, xd, wd := grad.Data, x.Data, c.W.Data.Data
	gw := c.W.Grad.Data
	biasGrad(c.B.Grad.Data, gd, n, co, do*ho*wo)

	tensor.ParallelFor(ci*co, func(job int) {
		cin := job / co
		oc := job % co
		wBase := (((cin*co + oc) * k) * k) * k
		for kz := 0; kz < k; kz++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					acc := 0.0
					for bn := 0; bn < n; bn++ {
						xBase := (bn*ci + cin) * d * h * w
						gBase := (bn*co + oc) * do * ho * wo
						for iz := 0; iz < d; iz++ {
							oz := iz*s - p + kz
							if oz < 0 || oz >= do {
								continue
							}
							for iy := 0; iy < h; iy++ {
								oy := iy*s - p + ky
								if oy < 0 || oy >= ho {
									continue
								}
								xRow := xBase + (iz*h+iy)*w
								gRow := gBase + (oz*ho+oy)*wo
								for ix := 0; ix < w; ix++ {
									ox := ix*s - p + kx
									if ox < 0 || ox >= wo {
										continue
									}
									acc += xd[xRow+ix] * gd[gRow+ox]
								}
							}
						}
					}
					gw[wBase+(kz*k+ky)*k+kx] += acc
				}
			}
		}
	})

	gin := c.bwd.get(n, ci, d, h, w)
	gi := gin.Data
	tensor.ParallelFor(n*ci, func(job int) {
		bn := job / ci
		cin := job % ci
		inBase := (bn*ci + cin) * d * h * w
		for iz := 0; iz < d; iz++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					acc := 0.0
					for oc := 0; oc < co; oc++ {
						wBase := (((cin*co + oc) * k) * k) * k
						gBase := (bn*co + oc) * do * ho * wo
						for kz := 0; kz < k; kz++ {
							oz := iz*s - p + kz
							if oz < 0 || oz >= do {
								continue
							}
							for ky := 0; ky < k; ky++ {
								oy := iy*s - p + ky
								if oy < 0 || oy >= ho {
									continue
								}
								for kx := 0; kx < k; kx++ {
									ox := ix*s - p + kx
									if ox < 0 || ox >= wo {
										continue
									}
									acc += wd[wBase+(kz*k+ky)*k+kx] * gd[gBase+(oz*ho+oy)*wo+ox]
								}
							}
						}
					}
					gi[inBase+(iz*h+iy)*w+ix] = acc
				}
			}
		}
	})
	return gin
}

// Params implements Layer.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }
