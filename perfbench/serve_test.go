package main

import (
	"math"
	"testing"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

func TestStatsDeltaFractions(t *testing.T) {
	before := serverStats{Requests: 100, CacheHits: 40, SharedInFlight: 5, Forwards: 20, BatchedRequests: 50, Shed: 1}
	after := serverStats{Requests: 300, CacheHits: 140, SharedInFlight: 25, Forwards: 60, BatchedRequests: 130, Shed: 11}
	d := after.sub(before)
	if d != (serverStats{Requests: 200, CacheHits: 100, SharedInFlight: 20, Forwards: 40, BatchedRequests: 80, Shed: 10}) {
		t.Fatalf("delta = %+v", d)
	}
	want := map[string]float64{
		"serve.forwards": 40, "serve.batch_mean": 2, "serve.cache_hit_frac": 0.5,
		"serve.shared_frac": 0.1, "serve.shed_frac": 0.05,
	}
	got := d.layerMetrics()
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if z := (serverStats{}).layerMetrics(); z["serve.batch_mean"] != 0 || z["serve.cache_hit_frac"] != 0 {
		t.Errorf("an idle delta must read zeros, got %v", z)
	}
}

func TestCheckerCatchesOneFlippedBit(t *testing.T) {
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 2
	c := &checker{net: unet.New(cfg), loss: fem.NewEnergyLoss(2), res: 16, ref: map[field.Omega][]float64{}}
	w := field.Omega{0.5, -1, 2, 0.25}
	u := append([]float64(nil), c.reference(w)...)
	a := answer{Res: 16, Dim: 2, U: u}
	if msg := c.verify(a, w, true, true); msg != "" {
		t.Fatalf("reference answer rejected: %s", msg)
	}
	u[37] = math.Float64frombits(math.Float64bits(u[37]) ^ 1)
	if c.verify(a, w, true, true) == "" {
		t.Error("a one-ulp difference passed the bit-exact check")
	}
	if c.verify(answer{Res: 16, Dim: 2, Cached: true, U: c.reference(w)}, w, false, true) == "" {
		t.Error("a cache hit on a distinct-omega workload passed")
	}
}
