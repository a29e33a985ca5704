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

	in       *tensor.Tensor
	fwd, bwd outBuf
	slabLowering
}

func (c *Conv3D) setBufferReuse(on bool) { c.fwd.on, c.bwd.on = on, on }

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
	}
	c.scratch = new(Scratch)
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
	for z0 := 0; z0 < do; z0 += dz {
		c.convSlab(out, x, wMat, c.B.Data.Data, k, s, p, z0, min(z0+dz, do))
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
	gin := c.bwd.getZero(n, ci, d, h, w)               // col2imSlab scatter-adds into it

	for z0 := 0; z0 < do; z0 += dz {
		z1 := min(z0+dz, do)
		gMat := c.adjointSlab(gin, gradOut, wMat, c.B.Grad.Data, k, s, p, z0, z1)
		cols := c.colsBuf.get(&c.scratch.cols, ciK3, gMat.Dim(1), true)
		im2colSlab(cols, x, k, s, p, z0, z1)
		tensor.MatMulTransBInto(gMat, cols, gw)
	}
	return gin
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose3D is a 3D transposed convolution over NCDHW tensors.
// Weight layout is [Cin, Cout, KD, KH, KW].
//
// It is the adjoint of a (k, s, p) convolution from its output grid back
// to its input grid, so it runs Conv3D's depth-slab lowering the other way
// round: Forward is Conv3D's input-gradient pass (cols = W̃ᵀ·x̃, then
// col2im onto the output) and Backward is Conv3D's forward pass over
// gradOut (im2col, then W̃·cols for gradX and x̃·colsᵀ for gradW). The
// direct loops survive only as the test oracle (ConvTranspose3DDirect). The
// same Scratch rules as Conv3D apply.
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
	slabLowering
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
	c.scratch = new(Scratch)
	heInitAny(rng, c.W.Data, inCh*kernel*kernel*kernel)
	return c
}

// OutSize returns the spatial output size for an input extent n.
func (c *ConvTranspose3D) OutSize(n int) int { return (n-1)*c.Stride - 2*c.Pad + c.Kernel }

// Forward implements Layer: the output starts at the bias, and per depth
// slab of x the columns W̃ᵀ·x̃ are scatter-added onto it by col2im.
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
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	coK3 := co * k * k * k
	dz := conv3dSlabDepth(coK3, n, d, h, w)

	out := c.fwd.get(n, co, do, ho, wo)
	vol := do * ho * wo
	for plane := 0; plane < n*co; plane++ {
		b := c.B.Data.Data[plane%co]
		row := out.Data[plane*vol : (plane+1)*vol]
		for i := range row {
			row[i] = b
		}
	}
	wMat := paramMat(&c.wMatView, c.W.Data.Data, ci, coK3)
	for z0 := 0; z0 < d; z0 += dz {
		c.adjointSlab(out, x, wMat, nil, k, s, p, z0, min(z0+dz, d))
	}
	return out
}

// Backward implements Layer: per depth slab of the input grid, im2col
// over gradOut, then gradX = W̃·cols and gradW += x̃·colsᵀ; gradB += the
// per-channel sums of gradOut.
func (c *ConvTranspose3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.in
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	coK3 := co * k * k * k
	dz := conv3dSlabDepth(coK3, n, d, h, w)
	biasGrad(c.B.Grad.Data, gradOut.Data, n, co, gradOut.Dim(2)*gradOut.Dim(3)*gradOut.Dim(4))

	wMat := paramMat(&c.wMatView, c.W.Data.Data, ci, coK3)
	gw := paramMat(&c.gwView, c.W.Grad.Data, ci, coK3) // accumulates across slabs
	gin := c.bwd.get(n, ci, d, h, w)                   // every slab overwrites its planes
	for z0 := 0; z0 < d; z0 += dz {
		z1 := min(z0+dz, d)
		cols := c.convSlab(gin, gradOut, wMat, nil, k, s, p, z0, z1)
		// The product slot is free again once convSlab has scattered it.
		xMat := c.matBuf.get(&c.scratch.prod, ci, cols.Dim(1), false)
		gatherSlab(xMat, x, nil, z0, z1)
		tensor.MatMulTransBInto(xMat, cols, gw)
	}
	return gin
}

// Params implements Layer.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }
