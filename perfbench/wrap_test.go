package main

import (
	"math"
	"sync"
	"testing"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/unet"
)

// TestTransportCountsRankOrderAllReduceTraffic checks the byte counter
// against the analytic traffic of dist's reduce-scatter + all-gather:
// rank r sends every other rank's chunk once and its own reduced chunk to
// each of the p-1 others, 2(p-1)n values over all ranks.
func TestTransportCountsRankOrderAllReduceTraffic(t *testing.T) {
	const p, n = 3, 1000
	eps := dist.NewChannelRing(p)
	mts := make([]*meteredTransport, p)
	xs := make([][]float64, p)
	for r := range p {
		mts[r] = &meteredTransport{Transport: eps[r]}
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = float64(r*n + i)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = dist.NewCommunicator(mts[r]).AllReduce(xs[r])
		}()
	}
	wg.Wait()
	total := int64(0)
	for r := range p {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		// chunkOffsets gives the first n%p chunks one extra element.
		own := int64(n / p)
		if r < n%p {
			own++
		}
		want := 8 * ((n - own) + (p-1)*own)
		if got := mts[r].bytes.Load(); got != want {
			t.Errorf("rank %d sent %d bytes, want %d", r, got, want)
		}
		if got := mts[r].sends.Load(); got != 2*(p-1) {
			t.Errorf("rank %d made %d sends, want %d", r, got, 2*(p-1))
		}
		total += mts[r].bytes.Load()
	}
	if want := int64(8 * 2 * (p - 1) * n); total != want {
		t.Errorf("all ranks sent %d bytes, want %d", total, want)
	}
	if want := float64(0+n+2*n) + 3*7; xs[1][7] != want {
		t.Errorf("reduced value %v, want %v", xs[1][7], want)
	}
}

func tinyConfig() core.Config {
	net := unet.DefaultConfig(2)
	net.BaseFilters = 2
	cfg := core.DefaultConfig(2)
	cfg.FinestRes, cfg.Levels, cfg.Samples, cfg.BatchSize = 16, 2, 3, 2
	cfg.Net = &net
	return cfg
}

// epochOnly implements core.EpochBackend and nothing else.
type epochOnly struct{}

func (epochOnly) TrainEpoch(int) (float64, error) { return 1, nil }
func (epochOnly) EvalLoss(int) (float64, error)   { return 1, nil }
func (epochOnly) Params() []*nn.Param             { return nil }

func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	wrapped := wrapBackend(core.NewTrainer(tinyConfig()), &meteredBackend{})
	if _, ok := wrapped.(core.AdaptingBackend); !ok {
		t.Error("wrapped trainer lost AdaptingBackend")
	}
	if _, ok := wrapped.(core.StatefulBackend); !ok {
		t.Error("wrapped trainer lost StatefulBackend")
	}
	plain := wrapBackend(epochOnly{}, &meteredBackend{})
	if _, ok := plain.(core.AdaptingBackend); ok {
		t.Error("wrapper added AdaptingBackend to a backend without it")
	}
	if _, ok := plain.(core.StatefulBackend); ok {
		t.Error("wrapper added StatefulBackend to a backend without it")
	}

	ds := field.NewDataset(3, 2)
	wd := wrapData(ds, &meteredData{})
	bi, ok := wd.(batchInto)
	if !ok {
		t.Fatal("wrapped dataset lost the BatchInto fast path")
	}
	got, want := bi.BatchInto(nil, 1, 2, 16), ds.Batch(1, 2, 16)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("BatchInto through the wrapper differs at %d", i)
		}
	}
	if _, ok := wrapData(onlyBatch{ds}, &meteredData{}).(batchInto); ok {
		t.Error("wrapper added BatchInto to a source without it")
	}
}

// onlyBatch hides field.Dataset's BatchInto.
type onlyBatch struct{ core.DataSource }

func TestTracedStepsMatchTrainEpochBitForBit(t *testing.T) {
	a, b := core.NewTrainer(tinyConfig()), core.NewTrainer(tinyConfig())
	tr := newTracer()
	b.Data = wrapData(b.Data, &meteredData{tr: tr})
	steps := tracedSteps(b, tr, func() spanRef { return spanRef{} })
	for _, res := range []int{8, 16, 16} {
		want, _ := a.TrainEpoch(res)
		got, _ := steps(res)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("res %d: traced loss %v, TrainEpoch %v", res, got, want)
		}
	}
	if len(tr.Spans()) == 0 {
		t.Error("traced steps recorded no spans")
	}
}
