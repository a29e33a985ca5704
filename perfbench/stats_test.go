package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 reported", v, ok)
	}
	if v, ok := percentile(seq(999), 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, %v; want 990 withheld (9 beyond)", v, ok)
	}
	if _, ok := percentile(seq(20), 0.5); !ok {
		t.Error("median of 20 samples has 10 beyond it and must be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples support no percentile")
	}
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
