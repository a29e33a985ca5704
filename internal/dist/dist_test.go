package dist

import (
	"math"
	"sync"
	"testing"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// runAllReduce executes reduce concurrently on p ranks over copies of vecs
// and returns each rank's result.
func runAllReduce(t *testing.T, p int, vecs [][]float64,
	reduce func(rank int, x []float64, tr Transport) error) [][]float64 {
	t.Helper()
	trs := NewChannelRing(p)
	out := make([][]float64, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		out[r] = append([]float64(nil), vecs[r]...)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = reduce(r, out[r], trs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

func serialSum(vecs [][]float64) []float64 {
	sum := append([]float64(nil), vecs[0]...)
	for _, v := range vecs[1:] {
		for i, x := range v {
			sum[i] += x
		}
	}
	return sum
}

func testVectors(p, n int) [][]float64 {
	vecs := make([][]float64, p)
	for r := range vecs {
		vecs[r] = make([]float64, n)
		for i := range vecs[r] {
			vecs[r][i] = float64(r+1) * math.Sin(float64(i)*0.37)
		}
	}
	return vecs
}

func TestAllReduceMatchesSerialSum(t *testing.T) {
	algos := map[string]func(rank int, x []float64, tr Transport) error{
		"Ring":  func(r int, x []float64, tr Transport) error { return RingAllReduce(r, tr.Peers(), x, tr) },
		"Naive": func(r int, x []float64, tr Transport) error { return NaiveAllReduce(r, tr.Peers(), x, tr) },
	}
	for name, reduce := range algos {
		t.Run(name, func(t *testing.T) {
			// n=1000 exercises uneven chunks at p=4,3; n=1 and n=3 exercise
			// empty ring chunks; p=1 is the no-op path.
			for _, tc := range []struct{ p, n int }{{4, 1000}, {3, 1000}, {4, 3}, {4, 1}, {2, 16}, {1, 64}} {
				vecs := testVectors(tc.p, tc.n)
				want := serialSum(vecs)
				got := runAllReduce(t, tc.p, vecs, reduce)
				for r := 0; r < tc.p; r++ {
					for i := range want {
						if math.Abs(got[r][i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
							t.Fatalf("p=%d n=%d rank %d elem %d: got %g want %g", tc.p, tc.n, r, i, got[r][i], want[i])
						}
					}
				}
			}
		})
	}
}

// The trainer's replica synchronization depends on every rank computing
// bit-identical sums; check exact equality across ranks.
func TestAllReduceRanksBitIdentical(t *testing.T) {
	const p, n = 4, 777
	vecs := testVectors(p, n)
	for name, reduce := range map[string]func(rank int, x []float64, tr Transport) error{
		"Ring":  func(r int, x []float64, tr Transport) error { return RingAllReduce(r, p, x, tr) },
		"Naive": func(r int, x []float64, tr Transport) error { return NaiveAllReduce(r, p, x, tr) },
	} {
		got := runAllReduce(t, p, vecs, reduce)
		for r := 1; r < p; r++ {
			for i := range got[0] {
				if got[r][i] != got[0][i] {
					t.Fatalf("%s: rank %d differs from rank 0 at elem %d", name, r, i)
				}
			}
		}
	}
}

func TestTransportErrors(t *testing.T) {
	trs := NewChannelRing(2)
	if err := trs[0].Send(0, nil); err == nil {
		t.Error("self-send should fail")
	}
	if err := trs[0].Send(5, nil); err == nil {
		t.Error("out-of-range send should fail")
	}
	if err := trs[0].Send(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Recv(0, make([]float64, 3)); err == nil {
		t.Error("length-mismatch recv should fail")
	}
	if err := RingAllReduce(7, 4, nil, trs[0]); err == nil {
		t.Error("out-of-range rank should fail")
	}
	if err := RingAllReduce(1, 2, nil, nil); err == nil {
		t.Error("nil transport should fail")
	}
}

func smallNet(dim int) *unet.Config {
	cfg := unet.DefaultConfig(dim)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	cfg.BatchNorm = false
	return &cfg
}

func TestParallelTrainerReplicasStayInSync(t *testing.T) {
	cfg := ParallelConfig{
		Workers: 4, Dim: 2, Res: 8, Samples: 8, GlobalBatch: 4,
		LR: 1e-3, Seed: 7, Net: smallNet(2),
	}
	pt, err := NewParallelTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()
	for e := 0; e < 2; e++ {
		loss, err := pt.TrainEpoch(cfg.Res)
		if err != nil {
			t.Fatal(err)
		}
		if loss <= 0 || math.IsNaN(loss) {
			t.Fatalf("epoch %d: bad loss %g", e, loss)
		}
	}
	if div := pt.MaxReplicaDivergence(); div != 0 {
		t.Fatalf("replicas diverged by %g; synchronous allreduce training must keep them bit-identical", div)
	}
}

// Eq. 15: the averaged gradient — and hence the training trajectory — is
// independent of the worker count up to floating-point summation order.
func TestParallelTrainerWorkerCountIndependence(t *testing.T) {
	losses := make([]float64, 0, 3)
	for _, p := range []int{1, 2, 4} {
		cfg := ParallelConfig{
			Workers: p, Dim: 2, Res: 8, Samples: 8, GlobalBatch: 4,
			LR: 1e-3, Seed: 13, Net: smallNet(2),
		}
		pt, err := NewParallelTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var loss float64
		for e := 0; e < 2; e++ {
			if loss, err = pt.TrainEpoch(cfg.Res); err != nil {
				t.Fatal(err)
			}
		}
		pt.Close()
		losses = append(losses, loss)
	}
	for _, l := range losses[1:] {
		if math.Abs(l-losses[0]) > 1e-6*math.Max(1, math.Abs(losses[0])) {
			t.Fatalf("worker-count dependent losses: %v", losses)
		}
	}
}

func TestParallelTrainerRejectsBadConfig(t *testing.T) {
	bad := []ParallelConfig{
		{Workers: 0, Dim: 2, Res: 8, Samples: 4, GlobalBatch: 2},
		{Workers: 2, Dim: 4, Res: 8, Samples: 4, GlobalBatch: 2},
		{Workers: 2, Dim: 2, Res: 7, Samples: 4, GlobalBatch: 2, Net: smallNet(2)},
		{Workers: 2, Dim: 2, Res: 8, Samples: 0, GlobalBatch: 2, Net: smallNet(2)},
	}
	for i, cfg := range bad {
		if _, err := NewParallelTrainer(cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

func TestTimeEpochReportsDuration(t *testing.T) {
	pt, err := NewParallelTrainer(ParallelConfig{
		Workers: 2, Dim: 2, Res: 8, Samples: 4, GlobalBatch: 2,
		LR: 1e-3, Seed: 1, Net: smallNet(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()
	dur, loss, err := pt.TimeEpoch(8)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 || loss <= 0 {
		t.Fatalf("bad epoch timing: dur=%v loss=%g", dur, loss)
	}
}

func spatialTestInput(dim, res int) *tensor.Tensor {
	shape := []int{1, 1, res, res}
	if dim == 3 {
		shape = append(shape, res)
	}
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i)*0.13) + 0.5*math.Cos(float64(i)*0.029)
	}
	return x
}

func TestSpatialInferenceMatchesMonolithic2D(t *testing.T) {
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	// BatchNorm stays on: inference uses pointwise running statistics, so
	// the decomposition must still be exact.
	net := unet.New(cfg)
	x := spatialTestInput(2, 64)
	want := net.Forward(x, false)
	for _, workers := range []int{2, 4} {
		si, err := NewSpatialInference(net, workers, HaloFor(net))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := si.Forward(x)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.SameShape(want) {
			t.Fatalf("workers=%d: shape %v want %v", workers, got.Shape(), want.Shape())
		}
		maxd := 0.0
		for i := range want.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-12 {
			t.Fatalf("workers=%d: max deviation %g from monolithic forward", workers, maxd)
		}
	}
}

func TestSpatialInferenceMatchesMonolithic3D(t *testing.T) {
	cfg := unet.DefaultConfig(3)
	cfg.BaseFilters = 4
	cfg.Depth = 1
	net := unet.New(cfg)
	x := spatialTestInput(3, 16)
	want := net.Forward(x, false)
	si, err := NewSpatialInference(net, 2, HaloFor(net))
	if err != nil {
		t.Fatal(err)
	}
	got, err := si.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("elem %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// At 32³ the slabs and the monolithic pass lower every convolution to
// GEMM over different volumes; each output element still accumulates its
// terms in the same order, so the decomposition is bit-exact.
func TestSpatialInferenceGEMMLowering3D(t *testing.T) {
	cfg := unet.DefaultConfig(3)
	cfg.BaseFilters = 2
	cfg.Depth = 2
	net := unet.New(cfg)
	x := spatialTestInput(3, 32)
	want := net.Forward(x, false)
	si, err := NewSpatialInference(net, 2, HaloFor(net))
	if err != nil {
		t.Fatal(err)
	}
	got, err := si.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("elem %d: slabs %v, monolithic %v", i, got.Data[i], want.Data[i])
		}
	}
}

// Data-parallel training through the GEMM-lowered Conv3D path at 32³: a
// sample's result does not depend on the shard it runs in, so sharding
// the batch across replicas must keep them bit-identical.
func TestParallelTrainerGEMMLoweringStaysInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("32³ epoch in short mode")
	}
	pt, err := NewParallelTrainer(ParallelConfig{
		Workers: 2, Dim: 3, Res: 32, Samples: 2, GlobalBatch: 2,
		LR: 1e-3, Seed: 21, Net: smallNet(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()
	loss, err := pt.TrainEpoch(32)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("bad loss %g", loss)
	}
	if div := pt.MaxReplicaDivergence(); div != 0 {
		t.Fatalf("replicas diverged by %g through the GEMM path", div)
	}
}

func TestHaloForAlignment(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, depth := range []int{1, 2, 3} {
			cfg := unet.DefaultConfig(dim)
			cfg.BaseFilters = 4
			cfg.Depth = depth
			net := unet.New(cfg)
			h := HaloFor(net)
			if h <= 0 || h%net.MinInputSize() != 0 {
				t.Errorf("dim=%d depth=%d: halo %d not a positive multiple of %d", dim, depth, h, net.MinInputSize())
			}
			if h < net.ReceptiveFieldRadius() {
				t.Errorf("dim=%d depth=%d: halo %d below receptive-field radius %d", dim, depth, h, net.ReceptiveFieldRadius())
			}
		}
	}
}

func TestSpatialInferenceRejectsBadDecomposition(t *testing.T) {
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = 4
	cfg.Depth = 2
	net := unet.New(cfg)
	if _, err := NewSpatialInference(net, 2, 2); err == nil {
		t.Error("halo below receptive field should be rejected")
	}
	if _, err := NewSpatialInference(net, 0, HaloFor(net)); err == nil {
		t.Error("zero workers should be rejected")
	}
	si, err := NewSpatialInference(net, 8, HaloFor(net))
	if err != nil {
		t.Fatal(err)
	}
	// 8 slabs of height 4 cannot carry a 12-row halo.
	if _, err := si.Forward(spatialTestInput(2, 32)); err == nil {
		t.Error("halo larger than slab should be rejected at Forward")
	}
	si2, err := NewSpatialInference(net, 2, HaloFor(net))
	if err != nil {
		t.Fatal(err)
	}
	// Shape violations must come back as errors, not goroutine panics.
	if _, err := si2.Forward(tensor.New(1, 1, 64, 30)); err == nil {
		t.Error("trailing extent not a multiple of MinInputSize should be rejected")
	}
	if _, err := si2.Forward(tensor.New(1, 2, 64, 64)); err == nil {
		t.Error("wrong channel count should be rejected")
	}
	if _, err := si2.Forward(tensor.New(1, 1, 64)); err == nil {
		t.Error("wrong rank should be rejected")
	}
}
