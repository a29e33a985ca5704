package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// explicitTranspose is the reference used to reduce the transposed kernels
// to plain products.
func explicitTranspose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func assertClose(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulMatchesNaive in tensor_test.go covers the plain product; the
// wide-output shapes below additionally exercise the column-panel parallel
// split that conv lowerings rely on.
func TestMatMulWideOutputMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, k, n int }{
		{3, 65, 300}, {16, 27, 4096}, {130, 100, 130},
	} {
		a := randMat(rng, tc.m, tc.k)
		b := randMat(rng, tc.k, tc.n)
		assertClose(t, "MatMul", MatMul(a, b), MatMulNaive(a, b))
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ k, m, n int }{
		{1, 1, 1}, {5, 3, 2}, {27, 16, 500}, {64, 64, 64}, {100, 3, 300}, {65, 130, 7},
	} {
		a := randMat(rng, tc.k, tc.m) // A is [k, m]; C = Aᵀ·B is [m, n]
		b := randMat(rng, tc.k, tc.n)
		assertClose(t, "MatMulTransA", MatMulTransA(a, b), MatMulNaive(explicitTranspose(a), b))
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {16, 500, 27}, {64, 64, 64}, {3, 300, 100}, {130, 65, 7},
	} {
		a := randMat(rng, tc.m, tc.k)
		b := randMat(rng, tc.n, tc.k) // B is [n, k]; C = A·Bᵀ is [m, n]
		assertClose(t, "MatMulTransB", MatMulTransB(a, b), MatMulNaive(a, explicitTranspose(b)))
	}
}

// sameBits reports whether two tensors hold the same float64 bit patterns,
// NaN payloads included.
func sameBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d not bit-identical: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// The GEMM kernels must give bit-identical results at every parallelism
// setting: the dist package's replica-consistency guarantees rest on it.
// Non-finite operands (0·Inf = NaN, Inf−Inf) must agree too, so every
// remainder path multiplies exactly like the blocked one. The shapes split
// both ways: the first product is partitioned by columns, the second by
// rows, with odd row counts per worker so rows change paths.
func TestMatMulDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ m, k, n int }{{9, 130, 400}, {301, 70, 5}} {
		a := randMat(rng, tc.m, tc.k)
		b := randMat(rng, tc.k, tc.n)
		// Zeros in A meet infinities in B, plus a NaN, on rows both at a
		// worker boundary and inside one, at a p inside a 4-p block and at
		// the last p, which the remainder loops take.
		for _, i := range []int{0, tc.m / 2, tc.m - 1} {
			for _, p := range []int{3, tc.k - 1} {
				a.Data[i*tc.k+p] = 0
				b.Data[p*tc.n+(i+p)%tc.n] = math.Inf(1)
			}
			b.Data[5*tc.n+(i+1)%tc.n] = math.Inf(-1)
		}
		a.Data[tc.k+7] = math.NaN()
		bt := explicitTranspose(b)
		at := explicitTranspose(a)

		prev := SetParallelism(1)
		serial := MatMul(a, b)
		serialTA := MatMulTransA(at, b)
		serialTB := MatMulTransB(a, bt)
		for _, p := range []int{2, 4} {
			SetParallelism(p)
			sameBits(t, "MatMul", MatMul(a, b), serial)
			sameBits(t, "MatMulTransA", MatMulTransA(at, b), serialTA)
			sameBits(t, "MatMulTransB", MatMulTransB(a, bt), serialTB)
		}
		SetParallelism(prev)
	}
}

// refMatMulInto spells out the summation order of matmulTile: every C
// element adds its p-terms one at a time, in ascending p, onto its running
// value. at(i, p) reads op(A).
func refMatMulInto(at func(i, p int) float64, k int, b, c *Tensor) {
	m, n := c.Dim(0), c.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.Data[i*n+j]
			for p := 0; p < k; p++ {
				s += at(i, p) * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
}

// refMatMulTransBInto spells out the summation order of MatMulTransBInto:
// each blockSize-long p-block is summed from zero in ascending p; the block
// sums go straight onto C, or, for a small output over a long contraction,
// onto a per-chunk partial that starts from zero and is then added to C,
// chunks in ascending order.
func refMatMulTransBInto(a, b, c *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	chunkLen := 0
	if m*n <= 1<<13 && k > transBChunkK {
		chunkLen = transBChunkK
		if k > 256*chunkLen {
			chunkLen = (k + 255) / 256
		}
	}
	blockDot := func(i, j, p0, p1 int) float64 {
		s := 0.0
		for p := p0; p < p1; p++ {
			s += a.Data[i*k+p] * b.Data[j*k+p]
		}
		return s
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.Data[i*n+j]
			if chunkLen == 0 {
				for p0 := 0; p0 < k; p0 += blockSize {
					s += blockDot(i, j, p0, min(p0+blockSize, k))
				}
			} else {
				for q0 := 0; q0 < k; q0 += chunkLen {
					part := 0.0
					for p0, q1 := q0, min(q0+chunkLen, k); p0 < q1; p0 += blockSize {
						part += blockDot(i, j, p0, min(p0+blockSize, q1))
					}
					s += part
				}
			}
			c.Data[i*n+j] = s
		}
	}
}

// The register-blocked micro-kernels reorder no sums: each Into product
// equals its reference loop exactly (==, not a tolerance), onto a nonzero
// destination, at every worker count. The shapes reach every remainder
// path: odd m and m mod 4 ≠ 0, k mod 4 ≠ 0 within a p-block, n not a
// multiple of 64, row and column partitions, and the chunked contraction.
func TestMatMulKernelsMatchSummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 5, 3}, {3, 67, 65}, {7, 131, 150}, {5, 70, 300}, {301, 70, 5}, {6, 2, 333},
		{3, 2*transBChunkK + 101, 5}, // chunked A·Bᵀ
	} {
		a := randMat(rng, tc.m, tc.k)
		at := explicitTranspose(a)
		b := randMat(rng, tc.k, tc.n)
		bt := explicitTranspose(b)
		c0 := randMat(rng, tc.m, tc.n)
		want := c0.Clone()
		refMatMulInto(func(i, p int) float64 { return a.Data[i*tc.k+p] }, tc.k, b, want)
		wantTB := c0.Clone()
		refMatMulTransBInto(a, bt, wantTB)
		for _, p := range []int{1, 2, 4} {
			SetParallelism(p)
			got := c0.Clone()
			MatMulInto(a, b, got)
			sameBits(t, "MatMulInto", got, want)
			got = c0.Clone()
			MatMulTransAInto(at, b, got)
			sameBits(t, "MatMulTransAInto", got, want)
			got = c0.Clone()
			MatMulTransBInto(a, bt, got)
			sameBits(t, "MatMulTransBInto", got, wantTB)
		}
	}
}

// The weight-gradient shape of the im2col lowering: tiny output, huge
// contraction — exercises the fixed-chunk parallel reduction path.
func TestMatMulTransBChunkedContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 4, 3*transBChunkK + 137, 9
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	assertClose(t, "chunked MatMulTransB", MatMulTransB(a, b), MatMulNaive(a, explicitTranspose(b)))

	prev := SetParallelism(1)
	defer SetParallelism(prev)
	serial := MatMulTransB(a, b)
	SetParallelism(8)
	parallel := MatMulTransB(a, b)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("chunked contraction not bit-identical across parallelism at %d", i)
		}
	}
}

func TestMatMulTransShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMulTransA rank":  func() { MatMulTransA(New(2, 2, 2), New(2, 2)) },
		"MatMulTransA inner": func() { MatMulTransA(New(3, 2), New(4, 2)) },
		"MatMulTransB rank":  func() { MatMulTransB(New(2, 2), New(4)) },
		"MatMulTransB inner": func() { MatMulTransB(New(2, 3), New(2, 4)) },
		// The Into variants validate operands themselves: a caller passing
		// mismatched contractions must not get a silently wrong product.
		"MatMulInto inner":       func() { MatMulInto(New(2, 5), New(7, 4), New(2, 4)) },
		"MatMulInto rank":        func() { MatMulInto(New(2), New(2, 2), New(2, 2)) },
		"MatMulInto dest":        func() { MatMulInto(New(2, 3), New(3, 4), New(2, 5)) },
		"MatMulTransAInto inner": func() { MatMulTransAInto(New(3, 2), New(4, 5), New(2, 5)) },
		"MatMulTransAInto dest":  func() { MatMulTransAInto(New(3, 2), New(3, 5), New(5, 2)) },
		"MatMulTransBInto inner": func() { MatMulTransBInto(New(2, 3), New(4, 5), New(2, 4)) },
		"MatMulTransBInto dest":  func() { MatMulTransBInto(New(2, 3), New(4, 3), New(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
