package nn

import (
	"fmt"
	"math"

	"mgdiffnet/internal/tensor"
)

// Conv2D is a 2D cross-correlation layer over NCHW tensors with zero
// padding. Weight layout is [Cout, Cin, KH, KW].
//
// Forward and Backward lower to im2col+GEMM, which beats the direct loops
// at every U-Net level size; the direct loops survive only as the test
// oracle (Conv2DDirect). Because the GEMM accumulates each output
// element's terms in a fixed ascending order (see tensor.MatMulInto),
// per-sample results are bit-identical regardless of batch composition,
// which the serving engine's coalescing relies on.
//
// The lowering's column and product matrices live in a Scratch that the
// layer may share with other layers (see ShareScratch), so a Conv2D must
// not run concurrently with itself or with any layer sharing its Scratch.
type Conv2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	in       *tensor.Tensor
	fwd, bwd outBuf

	// GEMM scratch: views over the (possibly shared) store, plus cached
	// weight/weight-gradient matrix views re-pointed on arena rebases.
	scratch                       *Scratch
	colsBuf, prodBuf, gradColsBuf gemmBuf
	wMatView, gwView              *tensor.Tensor
}

func (c *Conv2D) setBufferReuse(on bool) { c.fwd.on, c.bwd.on = on, on }
func (c *Conv2D) useScratch(s *Scratch)  { c.scratch = s }

// NewConv2D builds a 2D convolution with square kernels and He
// initialization appropriate for LeakyReLU networks.
func NewConv2D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *Conv2D {
	c := &Conv2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", outCh, inCh, kernel, kernel),
		B:           NewParam(name+".B", outCh),
		scratch:     new(Scratch),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel)
	return c
}

// heInitAny fills w with Kaiming-normal values for the given fan-in. It
// accepts any normal sampler, so layers can be seeded from *rand.Rand.
func heInitAny(rng interface{ NormFloat64() float64 }, w *tensor.Tensor, fanIn int) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
}

// OutSize returns the spatial output size for an input extent n.
func (c *Conv2D) OutSize(n int) int { return (n+2*c.Pad-c.Kernel)/c.Stride + 1 }

// Forward implements Layer: im2col, one GEMM against the [Cout, Cin·K·K]
// weight matrix, and a reorder to NCHW with the bias added.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "Conv2D")
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ci != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InChannels, ci))
	}
	ho, wo := c.OutSize(h), c.OutSize(w)
	if ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output collapsed for input %dx%d kernel %d stride %d pad %d", h, w, c.Kernel, c.Stride, c.Pad))
	}
	if train {
		c.in = x
	}
	k, s, p := c.Kernel, c.Stride, c.Pad
	colW := n * ho * wo

	cols := c.colsBuf.get(&c.scratch.cols, ci*k*k, colW, true)
	im2col2DInto(cols, x, k, s, p)
	wMat := paramMat(&c.wMatView, c.W.Data.Data, c.OutChannels, ci*k*k)
	prod := c.prodBuf.get(&c.scratch.prod, c.OutChannels, colW, true)
	tensor.MatMulInto(wMat, cols, prod) // [Cout, N·Ho·Wo]

	out := c.fwd.get(n, c.OutChannels, ho, wo)
	od, pd, bd := out.Data, prod.Data, c.B.Data.Data
	tensor.ParallelFor(c.OutChannels, func(oc int) {
		rowBase := oc * colW
		for bn := 0; bn < n; bn++ {
			dst := (bn*c.OutChannels + oc) * ho * wo
			src := rowBase + bn*ho*wo
			for i := 0; i < ho*wo; i++ {
				od[dst+i] = pd[src+i] + bd[oc]
			}
		}
	})
	return out
}

// Backward implements Layer by the same lowering: gradW += gradOut·colsᵀ,
// gradB += row sums, gradX = col2im(Wᵀ·gradOut).
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.in
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	k, s, p := c.Kernel, c.Stride, c.Pad
	ho, wo := gradOut.Dim(2), gradOut.Dim(3)
	ci, co := c.InChannels, c.OutChannels
	colW := n * ho * wo

	// Reorder gradOut from [N, Cout, Ho, Wo] into [Cout, N·Ho·Wo]. The
	// matrix is fully overwritten, so no zeroing is needed.
	gMat := c.prodBuf.get(&c.scratch.prod, co, colW, false)
	chanMajor(gMat, gradOut.Data, n, co, ho*wo)

	biasGrad(c.B.Grad.Data, gradOut.Data, n, co, ho*wo)

	cols := c.colsBuf.get(&c.scratch.cols, ci*k*k, colW, true)
	im2col2DInto(cols, x, k, s, p)
	// gradW accumulates in place: gw += gMat · colsᵀ.
	gw := paramMat(&c.gwView, c.W.Grad.Data, co, ci*k*k)
	tensor.MatMulTransBInto(gMat, cols, gw)

	wMat := paramMat(&c.wMatView, c.W.Data.Data, co, ci*k*k)
	gCols := c.gradColsBuf.get(&c.scratch.gradCols, ci*k*k, colW, true)
	tensor.MatMulTransAInto(wMat, gMat, gCols)
	gin := c.bwd.getZero(n, ci, h, w)
	col2im2DInto(gin, gCols, k, s, p)
	return gin
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose2D is a 2D transposed convolution (fractionally strided
// convolution) over NCHW tensors. Weight layout is [Cin, Cout, KH, KW];
// the output extent for input n is (n-1)*stride - 2*pad + kernel.
//
// Like Conv2D it runs the GEMM lowering over a possibly shared Scratch,
// with the direct gather loops kept as the test oracle
// (ConvTranspose2DDirect). Results are bit-identical across batch
// compositions, matching the serving engine's coalescing contract.
type ConvTranspose2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int

	W *Param
	B *Param

	in       *tensor.Tensor
	fwd, bwd outBuf

	scratch          *Scratch
	colsBuf, matBuf  gemmBuf
	wMatView, gwView *tensor.Tensor
}

func (c *ConvTranspose2D) setBufferReuse(on bool) { c.fwd.on, c.bwd.on = on, on }
func (c *ConvTranspose2D) useScratch(s *Scratch)  { c.scratch = s }

// NewConvTranspose2D builds a 2D transpose convolution with He init.
func NewConvTranspose2D(rng interface{ NormFloat64() float64 }, name string, inCh, outCh, kernel, stride, pad int) *ConvTranspose2D {
	c := &ConvTranspose2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		W:           NewParam(name+".W", inCh, outCh, kernel, kernel),
		B:           NewParam(name+".B", outCh),
		scratch:     new(Scratch),
	}
	heInitAny(rng, c.W.Data, inCh*kernel*kernel)
	return c
}

// OutSize returns the spatial output size for an input extent n.
func (c *ConvTranspose2D) OutSize(n int) int { return (n-1)*c.Stride - 2*c.Pad + c.Kernel }

// Forward implements Layer as the adjoint of the im2col lowering:
// cols = W̃ᵀ·x̃ followed by a col2im scatter onto the (larger) output grid.
// The transposed convolution is exactly the adjoint of a (k, s, p)
// convolution from the output grid back to the input grid, so the same
// col2im kernel serves both Conv2D's backprop and this forward.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "ConvTranspose2D")
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ci != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose2D expects %d input channels, got %d", c.InChannels, ci))
	}
	ho, wo := c.OutSize(h), c.OutSize(w)
	if train {
		c.in = x
	}
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	hw := h * w

	xMat := c.matBuf.get(&c.scratch.prod, ci, n*hw, false) // fully overwritten
	chanMajor(xMat, x.Data, n, ci, hw)
	wMat := paramMat(&c.wMatView, c.W.Data.Data, ci, co*k*k)
	cols := c.colsBuf.get(&c.scratch.cols, co*k*k, n*hw, true)
	tensor.MatMulTransAInto(wMat, xMat, cols) // [Co·K·K, N·H·W]

	out := c.fwd.getZero(n, co, ho, wo)
	col2im2DInto(out, cols, k, s, p)
	od, bd := out.Data, c.B.Data.Data
	tensor.ParallelFor(co, func(oc int) {
		for bn := 0; bn < n; bn++ {
			base := (bn*co + oc) * ho * wo
			for i := 0; i < ho*wo; i++ {
				od[base+i] += bd[oc]
			}
		}
	})
	return out
}

// Backward implements Layer by the same lowering:
// gradX = W̃·im2col(gradOut), gradW += x̃·im2col(gradOut)ᵀ,
// gradB += per-channel sums.
func (c *ConvTranspose2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.in
	k, s, p := c.Kernel, c.Stride, c.Pad
	ci, co := c.InChannels, c.OutChannels
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	ho, wo := gradOut.Dim(2), gradOut.Dim(3)
	hw := h * w

	biasGrad(c.B.Grad.Data, gradOut.Data, n, co, ho*wo)

	// im2col over gradOut with the adjoint (k, s, p) geometry yields the
	// [Co·K·K, N·H·W] matrix both remaining gradients contract against.
	cols := c.colsBuf.get(&c.scratch.cols, co*k*k, n*hw, true)
	im2col2DInto(cols, gradOut, k, s, p)

	// gradX = W̃ · cols, reordered back to NCHW.
	wMat := paramMat(&c.wMatView, c.W.Data.Data, ci, co*k*k)
	ginMat := c.matBuf.get(&c.scratch.prod, ci, n*hw, true)
	tensor.MatMulInto(wMat, cols, ginMat)
	gin := c.bwd.get(n, ci, h, w)
	gi := gin.Data
	for bn := 0; bn < n; bn++ {
		for ch := 0; ch < ci; ch++ {
			src := ch*(n*hw) + bn*hw
			dst := (bn*ci + ch) * hw
			copy(gi[dst:dst+hw], ginMat.Data[src:src+hw])
		}
	}

	// gradW += x̃ · colsᵀ (the product slot is free again after the
	// reorder above).
	xMat := c.matBuf.get(&c.scratch.prod, ci, n*hw, false)
	chanMajor(xMat, x.Data, n, ci, hw)
	gw := paramMat(&c.gwView, c.W.Grad.Data, ci, co*k*k)
	tensor.MatMulTransBInto(xMat, cols, gw)
	return gin
}

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.W, c.B} }
