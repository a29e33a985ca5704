package main

import (
	"fmt"
	"math/rand"
	"time"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// convLayer is the part of nn.Conv2D and nn.Conv3D the kernel probe uses.
type convLayer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
}

// convShape is one 3×3(×3) stride-1 convolution of a U-Net level.
type convShape struct {
	dim, n, cin, cout, res int
}

func (s convShape) volume() int {
	v := s.res * s.res
	if s.dim == 3 {
		v *= s.res
	}
	return v
}

// taps is the kernel's spatial size, 3^dim.
func (s convShape) taps() int {
	if s.dim == 3 {
		return 27
	}
	return 9
}

// fwdFLOPs is the analytic multiply-add count of the forward pass, two
// FLOPs per multiply-add; bias adds are ignored.
func (s convShape) fwdFLOPs() float64 {
	return 2 * float64(s.n*s.cin*s.cout*s.taps()) * float64(s.volume())
}

// fwdBytes is computed from tensor sizes, not measured: input, weights and
// output, eight bytes per float64, each touched once.
func (s convShape) fwdBytes() float64 {
	return 8 * float64(s.n*s.cin*s.volume()+s.cout*s.cin*s.taps()+s.n*s.cout*s.volume())
}

// levelConvs returns the convolutions of U-Net level k (0 = finest) for an
// input of n samples at resolution res: the encoder block and the decoder
// block at that level, or the bottleneck at level Depth.
func levelConvs(cfg unet.Config, n, res, k int) []convShape {
	ch := func(l int) int { return cfg.BaseFilters << l }
	r := res >> k
	if k == cfg.Depth {
		return []convShape{{cfg.Dim, n, ch(k - 1), ch(k), r}}
	}
	in := cfg.InChannels
	if k > 0 {
		in = ch(k - 1)
	}
	return []convShape{{cfg.Dim, n, in, ch(k), r}, {cfg.Dim, n, 2 * ch(k), ch(k), r}}
}

// probeLevels runs nn.Conv2D or nn.Conv3D forward and backward at every
// U-Net level's exact shapes and reports achieved GFLOP/s each way and the
// forward pass's computed FLOPs per byte. Layers use the default
// algorithm selection, as the U-Net does.
func probeLevels(cfg unet.Config, n, res int, seed int64, tr *Tracer) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	for k := 0; k <= cfg.Depth; k++ {
		var flops, bytes, fwd, bwd float64
		for _, s := range levelConvs(cfg, n, res, k) {
			f, b := timeConv(s, rng, tr)
			flops += s.fwdFLOPs()
			bytes += s.fwdBytes()
			fwd += f
			bwd += b
		}
		out[fmt.Sprintf("nn.conv.fwd_gflops.L%d", k)] = flops / fwd / 1e9
		// Backward computes the input gradient and the weight gradient,
		// each a convolution of the forward's size.
		out[fmt.Sprintf("nn.conv.bwd_gflops.L%d", k)] = 2 * flops / bwd / 1e9
		out[fmt.Sprintf("nn.conv.flop_per_byte.L%d", k)] = flops / bytes
	}
	return out
}

// timeConv returns the median forward and backward seconds of one
// convolution over a few repetitions after a warm-up pass.
func timeConv(s convShape, rng *rand.Rand, tr *Tracer) (float64, float64) {
	var c convLayer
	var shape []int
	if s.dim == 3 {
		c = nn.NewConv3D(rng, "probe", s.cin, s.cout, 3, 1, 1)
		shape = []int{s.n, s.cin, s.res, s.res, s.res}
	} else {
		c = nn.NewConv2D(rng, "probe", s.cin, s.cout, 3, 1, 1)
		shape = []int{s.n, s.cin, s.res, s.res}
	}
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := c.Forward(x, true)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	c.Backward(g)
	const reps = 5
	var fwd, bwd []float64
	for range reps {
		sp := tr.Start("nn.conv.forward", spanRef{}, 0)
		t := time.Now()
		c.Forward(x, true)
		fwd = append(fwd, time.Since(t).Seconds())
		sp.End()
		sp = tr.Start("nn.conv.backward", spanRef{}, 0)
		t = time.Now()
		c.Backward(g)
		bwd = append(bwd, time.Since(t).Seconds())
		sp.End()
	}
	return median(fwd), median(bwd)
}
