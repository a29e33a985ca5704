package nn

import (
	"math"
	"runtime"
	"testing"

	"mgdiffnet/internal/tensor"
)

func TestIm2Col3DShape(t *testing.T) {
	rng := NewRNG(60)
	x := randTensor(rng, 2, 3, 6, 6, 6)
	cols := Im2Col3D(x, 3, 1, 1)
	if cols.Dim(0) != 3*27 || cols.Dim(1) != 2*6*6*6 {
		t.Fatalf("im2col3d shape %v", cols.Shape())
	}
}

func TestCol2Im3DIsAdjointOfIm2Col3D(t *testing.T) {
	rng := NewRNG(61)
	for _, tc := range []struct{ k, s, p int }{
		{3, 1, 1}, {3, 2, 1}, {2, 2, 0}, {5, 1, 2},
	} {
		const n, ci, d, h, w = 2, 2, 6, 6, 6
		x := randTensor(rng, n, ci, d, h, w)
		cols := Im2Col3D(x, tc.k, tc.s, tc.p)
		y := randTensor(rng, cols.Dim(0), cols.Dim(1))
		// <im2col(x), y> == <x, col2im(y)>.
		lhs := cols.Dot(y)
		vol := Col2Im3D(y, n, ci, d, h, w, tc.k, tc.s, tc.p)
		rhs := x.Dot(vol)
		if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
			t.Fatalf("%+v: adjoint identity violated: %v vs %v", tc, lhs, rhs)
		}
	}
}

func TestConv3DGEMMMatchesDirect(t *testing.T) {
	rng := NewRNG(62)
	for _, tc := range []struct{ ci, co, k, s, p, d int }{
		{1, 4, 3, 1, 1, 6},
		{3, 5, 3, 2, 1, 8},
		{2, 2, 1, 1, 0, 5},
		{2, 3, 5, 1, 2, 7},
		{4, 2, 2, 2, 0, 6},
	} {
		c := NewConv3D(rng, "c", tc.ci, tc.co, tc.k, tc.s, tc.p)
		x := randTensor(rng, 2, tc.ci, tc.d, tc.d, tc.d)
		direct := Conv3DDirect(c, x)
		gemm := c.Forward(x, false)
		if !direct.SameShape(gemm) {
			t.Fatalf("%+v: shapes %v vs %v", tc, direct.Shape(), gemm.Shape())
		}
		for i := range direct.Data {
			if math.Abs(direct.Data[i]-gemm.Data[i]) > 1e-12*(1+math.Abs(direct.Data[i])) {
				t.Fatalf("%+v: element %d differs: %v vs %v", tc, i, direct.Data[i], gemm.Data[i])
			}
		}
	}
}

// The layer runs Forward(train=true) then Backward — the exact call
// pattern the U-Net makes — and must match the oracle on all three
// gradients.
func TestConv3DGEMMBackwardMatchesDirect(t *testing.T) {
	rng := NewRNG(63)
	for _, tc := range []struct{ ci, co, k, s, p, d int }{
		{1, 4, 3, 1, 1, 6},
		{3, 4, 3, 2, 1, 8},
		{2, 2, 5, 1, 2, 7},
		{2, 3, 2, 2, 0, 6},
	} {
		cDirect := NewConv3D(rng, "cd", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cGEMM := NewConv3D(rng, "cg", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cGEMM.W.Data.CopyFrom(cDirect.W.Data)
		cGEMM.B.Data.CopyFrom(cDirect.B.Data)

		x := randTensor(rng, 2, tc.ci, tc.d, tc.d, tc.d)
		out := cGEMM.Forward(x, true)
		gradOut := randTensor(rng, out.Shape()...)

		ZeroGrads(cDirect, cGEMM)
		gxDirect := Conv3DDirectBackward(cDirect, x, gradOut)
		gxGEMM := cGEMM.Backward(gradOut)

		if !gxDirect.SameShape(gxGEMM) {
			t.Fatalf("%+v: input grad shapes %v vs %v", tc, gxDirect.Shape(), gxGEMM.Shape())
		}
		for i := range gxDirect.Data {
			if math.Abs(gxDirect.Data[i]-gxGEMM.Data[i]) > 1e-12*(1+math.Abs(gxDirect.Data[i])) {
				t.Fatalf("%+v: input grad %d differs: %v vs %v", tc, i, gxDirect.Data[i], gxGEMM.Data[i])
			}
		}
		for i := range cDirect.W.Grad.Data {
			if math.Abs(cDirect.W.Grad.Data[i]-cGEMM.W.Grad.Data[i]) > 1e-12*(1+math.Abs(cDirect.W.Grad.Data[i])) {
				t.Fatalf("%+v: weight grad %d differs: %v vs %v", tc, i, cDirect.W.Grad.Data[i], cGEMM.W.Grad.Data[i])
			}
		}
		for i := range cDirect.B.Grad.Data {
			if math.Abs(cDirect.B.Grad.Data[i]-cGEMM.B.Grad.Data[i]) > 1e-12*(1+math.Abs(cDirect.B.Grad.Data[i])) {
				t.Fatalf("%+v: bias grad %d differs", tc, i)
			}
		}
	}
}

// TestConvTranspose3DGEMMMatchesDirect compares the GEMM-lowered layer with
// the direct oracle loops through Forward(train) and Backward: output,
// input gradient, and both parameter gradients. The geometries are the
// U-Net upsampler (k2 s2 p0) and Adapt's refinement layers (k3 s1 p1), at
// batch 2 with non-cubic extents; the last shape spans several depth
// slabs, so slab seams are covered.
func TestConvTranspose3DGEMMMatchesDirect(t *testing.T) {
	rng := NewRNG(64)
	for _, tc := range []struct{ n, ci, co, k, s, p, d, h, w int }{
		{1, 3, 2, 2, 2, 0, 4, 4, 4},
		{2, 4, 3, 2, 2, 0, 3, 5, 4},
		{2, 2, 3, 3, 1, 1, 5, 4, 6},
		{1, 2, 8, 3, 1, 1, 12, 32, 32}, // > 1 slab
	} {
		cd := NewConvTranspose3D(rng, "cd", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cg := NewConvTranspose3D(rng, "cg", tc.ci, tc.co, tc.k, tc.s, tc.p)
		cg.W.Data.CopyFrom(cd.W.Data)
		cg.B.Data.CopyFrom(cd.B.Data)
		if tc.d > 8 {
			if dz := conv3dSlabDepth(tc.co*tc.k*tc.k*tc.k, tc.n, tc.d, tc.h, tc.w); dz >= tc.d {
				t.Fatalf("%+v: slab depth %d covers the whole input; the case needs several slabs", tc, dz)
			}
		}

		x := randTensor(rng, tc.n, tc.ci, tc.d, tc.h, tc.w)
		want := ConvTranspose3DDirect(cd, x)
		got := cg.Forward(x, true)
		gradOut := randTensor(rng, got.Shape()...)
		ZeroGrads(cd, cg)
		gxWant := ConvTranspose3DDirectBackward(cd, x, gradOut)
		gxGot := cg.Backward(gradOut)

		for _, pair := range []struct {
			name      string
			got, want *tensor.Tensor
		}{
			{"output", got, want},
			{"input grad", gxGot, gxWant},
			{"weight grad", cg.W.Grad, cd.W.Grad},
			{"bias grad", cg.B.Grad, cd.B.Grad},
		} {
			if !pair.got.SameShape(pair.want) {
				t.Fatalf("%+v: %s shape %v want %v", tc, pair.name, pair.got.Shape(), pair.want.Shape())
			}
			for i, w := range pair.want.Data {
				if math.Abs(pair.got.Data[i]-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("%+v: %s %d differs: %v vs %v", tc, pair.name, i, pair.got.Data[i], w)
				}
			}
		}
	}
}

// TestConvTranspose3DGEMMBatchInvariance is the 3D counterpart of the
// ConvTranspose2D contract: a sample's output is bit-identical alone and
// in a batch, although the batch changes the slab depth and so where the
// slab seams fall (col2im adds each element's terms in a fixed order
// whatever the slabbing).
func TestConvTranspose3DGEMMBatchInvariance(t *testing.T) {
	rng := NewRNG(65)
	c := NewConvTranspose3D(rng, "t", 2, 8, 3, 1, 1)
	const n, d, res = 3, 12, 32
	if conv3dSlabDepth(8*27, 1, d, res, res) == conv3dSlabDepth(8*27, n, d, res, res) {
		t.Fatal("batching must change the slab depth for this test to bite")
	}
	batch := randTensor(rng, n, 2, d, res, res)
	yBatch := c.Forward(batch, false).Clone()
	per, outPer := batch.Len()/n, yBatch.Len()/n
	single := tensor.New(1, 2, d, res, res)
	for s := 0; s < n; s++ {
		copy(single.Data, batch.Data[s*per:(s+1)*per])
		y := c.Forward(single, false)
		for i := range y.Data {
			if y.Data[i] != yBatch.Data[s*outPer+i] {
				t.Fatalf("sample %d element %d: batched %v, single %v", s, i, yBatch.Data[s*outPer+i], y.Data[i])
			}
		}
	}
}

// TestConvTranspose3DSteadyStateAllocs pins that the lowering streams
// through reused storage: with buffer reuse on and after a warm-up pass, a
// Forward+Backward allocates no tensor and no scratch. What remains are the
// few-word closures handed to the parallel loops, the same as Conv3D's.
func TestConvTranspose3DSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	rng := NewRNG(66)
	for _, tc := range []struct{ k, s, p int }{{2, 2, 0}, {3, 1, 1}} {
		ct := NewConvTranspose3D(rng, "t", 4, 4, tc.k, tc.s, tc.p)
		SetBufferReuse(ct, true)
		x := randTensor(rng, 1, 4, 8, 8, 8)
		g := randTensor(rng, ct.Forward(x, true).Shape()...)
		ct.Backward(g)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		allocs := testing.AllocsPerRun(10, func() {
			ct.Forward(x, true)
			ct.Backward(g)
		})
		runtime.ReadMemStats(&ms1)
		// AllocsPerRun makes one warm-up call before its ten timed ones.
		perRun := (ms1.TotalAlloc - ms0.TotalAlloc) / 11
		if limit := uint64(8 * x.Len() / 4); perRun > limit { // a quarter of the smallest buffer
			t.Fatalf("k%d s%d: %d B in %v allocations per Forward+Backward, over %d B: a tensor or scratch buffer is allocated",
				tc.k, tc.s, perRun, allocs, limit)
		}
	}
}
