package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/unet"
)

// trainSpec is one training workload: a schedule configuration and the
// number of TCP ranks that run it (1 means a single core.Trainer).
type trainSpec struct {
	cfg   core.Config
	ranks int
}

// spec3D is train-3d-p1: the default single-process path of mgtrain -dim 3
// (Half-V, three levels, batch-norm on), sized so one schedule of one
// step per epoch takes about three and a half seconds on two cores and a
// run times several. The finest level's 32^3 convolutions take the
// im2col+GEMM lowering; the 16^3 and 8^3 levels take the direct kernel.
func spec3D() trainSpec {
	net := unet.DefaultConfig(3)
	net.BaseFilters = 4
	return trainSpec{cfg: core.Config{
		Dim: 3, Strategy: core.HalfV, Levels: 3, FinestRes: 32,
		Samples: 2, BatchSize: 2, LR: 1e-3,
		RestrictionEpochs: 2, MaxEpochsPerStage: 2, Patience: 4, MinDelta: 1e-6,
		Seed: 42, Net: &net,
	}, ranks: 1}
}

// spec2DP2 is train-2d-p2: a 2D Half-V schedule run by two ranks, each a
// dist.ParallelTrainer over one endpoint of a loopback TCP world, the way
// mgtrain -transport tcp runs it. Batch-norm is off, as in every
// data-parallel harness of the repository, so both ranks hold
// bit-identical state.
func spec2DP2() trainSpec {
	net := unet.DefaultConfig(2)
	net.BaseFilters = 8
	net.BatchNorm = false
	return trainSpec{cfg: core.Config{
		Dim: 2, Strategy: core.HalfV, Levels: 3, FinestRes: 64,
		Samples: 8, BatchSize: 4, LR: 1e-3,
		RestrictionEpochs: 2, MaxEpochsPerStage: 3, Patience: 4, MinDelta: 1e-6,
		Seed: 42, Net: &net,
	}, ranks: 2}
}

func (s trainSpec) describe() map[string]any {
	c := s.cfg
	return map[string]any{
		"dim": c.Dim, "strategy": c.Strategy.String(), "levels": c.Levels, "finest_res": c.FinestRes,
		"samples": c.Samples, "batch": c.BatchSize, "lr": c.LR, "epochs_per_stage": c.MaxEpochsPerStage,
		"filters": c.Net.BaseFilters, "batchnorm": c.Net.BatchNorm, "model_seed": c.Seed, "ranks": s.ranks,
	}
}

// session is one built training setup: the trainer, or the TCP world and
// its two trainers, each behind a meteredBackend.
type session struct {
	spec     trainSpec
	backends []core.EpochBackend
	meters   []*meteredBackend
	trans    []*meteredTransport
	pts      []*dist.ParallelTrainer
	world    []*dist.TCPTransport
}

// newSession builds a session. With a tracer, the data sources and
// transports are metered too, and the single-process trainer's epochs run
// through tracedSteps.
func newSession(spec trainSpec, tr *Tracer) (*session, error) {
	s := &session{spec: spec}
	cfg := spec.cfg
	if spec.ranks == 1 {
		t := core.NewTrainer(cfg)
		m := &meteredBackend{tr: tr}
		if tr != nil {
			t.Data = wrapData(t.Data, &meteredData{tr: tr, parent: m.parent})
			m.train = tracedSteps(t, tr, m.parent)
		}
		s.meters = append(s.meters, m)
		s.backends = append(s.backends, wrapBackend(t, m))
		return s, nil
	}
	world, err := dist.NewLocalTCPWorld(spec.ranks, dist.DefaultTCPOptions())
	if err != nil {
		return nil, err
	}
	s.world = world
	for _, ep := range world {
		m := &meteredBackend{tr: tr}
		var tp dist.Transport = ep
		var data dist.DataSource
		if tr != nil {
			mt := &meteredTransport{Transport: ep, tr: tr, parent: m.parent}
			tp = mt
			s.trans = append(s.trans, mt)
			data = wrapData(field.NewDataset(cfg.Samples, cfg.Dim), &meteredData{tr: tr, parent: m.parent})
		}
		pt, err := dist.NewParallelTrainer(dist.ParallelConfig{
			Transport: tp, Dim: cfg.Dim, Res: cfg.FinestRes, Samples: cfg.Samples,
			GlobalBatch: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed, Net: cfg.Net, Data: data,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.pts = append(s.pts, pt)
		s.meters = append(s.meters, m)
		s.backends = append(s.backends, wrapBackend(pt, m))
	}
	return s, nil
}

func (s *session) close() {
	for _, pt := range s.pts {
		pt.Close()
	}
	for _, ep := range s.world {
		ep.Close()
	}
}

// run executes one full schedule on every rank concurrently and returns
// the per-rank reports and the wall time until the last rank finished.
func (s *session) run(tr *Tracer) ([]*core.Report, []error, float64) {
	reps := make([]*core.Report, len(s.backends))
	errs := make([]error, len(s.backends))
	start := time.Now()
	var wg sync.WaitGroup
	for r := range s.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.Start("core.schedule", spanRef{}, 0)
			s.meters[r].root = root
			reps[r], errs[r] = core.RunSchedule(s.spec.cfg, s.backends[r], core.RunOptions{})
			root.End()
		}()
	}
	wg.Wait()
	return reps, errs, time.Since(start).Seconds()
}

// tracedSteps repeats core.Trainer.TrainEpoch's step loop from outside,
// through the trainer's public Data, Net, Loss and Opt fields, with a span
// around each layer call. It must stay step-for-step identical to
// TrainEpoch: traceTrain checks that both produce bit-identical losses.
func tracedSteps(t *core.Trainer, tr *Tracer, parent func() spanRef) func(int) (float64, error) {
	return func(res int) (float64, error) {
		bs, ns := t.Cfg.BatchSize, t.Data.Len()
		total := 0.0
		for lo := 0; lo < ns; lo += bs {
			n := min(bs, ns-lo)
			nu := t.Data.Batch(lo, n, res)
			for _, p := range t.Net.Params() {
				p.ZeroGrad()
			}
			sp := tr.Start("unet.forward", parent(), 0)
			pred := t.Net.Forward(nu, true)
			sp.End()
			sp = tr.Start("fem.loss", parent(), 0)
			loss, grad := t.Loss.Eval(pred, nu)
			sp.End()
			sp = tr.Start("unet.backward", parent(), 0)
			t.Net.Backward(grad)
			sp.End()
			sp = tr.Start("nn.adam", parent(), 0)
			t.Opt.Step()
			sp.End()
			total += loss * float64(n)
		}
		return total / float64(ns), nil
	}
}

// setupReps is how many times a run builds the training setup to report
// the median set-up time; building is milliseconds, so many repetitions
// cost little and steady the median.
const setupReps = 31

func runTrain(rc *runCtx, spec trainSpec) (*outcome, error) {
	o := newOutcome()
	o.report["config"] = spec.describe()
	var setups []float64
	for range setupReps {
		start := time.Now()
		s, err := newSession(spec, nil)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		s.close()
	}
	o.metrics["setup_s"] = median(setups)
	o.report["setup_s"] = summarize(setups)
	debug.FreeOSMemory()
	if rc.traced() {
		return traceTrain(rc, spec, o)
	}

	// Run whole schedules while the next one still fits in the budget.
	var walls, epochs []float64
	var first []*core.Report
	start := time.Now()
	for {
		s, err := newSession(spec, nil)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		reps, errs, wall := s.run(nil)
		checkSchedule(o, s, reps, errs, first)
		s.close()
		// Return the finished schedule's memory to the OS so the peak
		// resident set measures one schedule, not the garbage of the last.
		debug.FreeOSMemory()
		if first == nil {
			first = reps
		}
		walls = append(walls, wall)
		epochs = append(epochs, finestEpochs(s)...)
		if time.Since(start).Seconds()+wall > rc.seconds {
			break
		}
	}
	o.metrics["job_s"] = median(walls)
	o.metrics["op_ms"] = 1000 * median(epochs)
	if first[0] != nil {
		o.metrics["final_loss"] = first[0].FinalLoss
	}
	o.metrics["ok_frac"] = okFrac(o)
	o.metrics["peak_rss_mb"] = peakRSSMB("self")
	o.report["schedules"] = summarize(walls)
	o.report["finest_epochs"] = summarize(epochs)
	return o, nil
}

func okFrac(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// finestEpochs returns the wall time of each finest-level training epoch
// of the session's last schedule; with several ranks, an epoch lasts until
// its slowest rank finishes it.
func finestEpochs(s *session) []float64 {
	var out []float64
	for r, m := range s.meters {
		k := 0
		for _, rec := range m.Records {
			if !rec.Train || rec.Res != s.spec.cfg.FinestRes {
				continue
			}
			if r == 0 {
				out = append(out, rec.Seconds)
			} else if k < len(out) {
				out[k] = max(out[k], rec.Seconds)
			}
			k++
		}
	}
	return out
}

// checkSchedule counts the schedule's epochs as operations and checks its
// outputs: every epoch succeeded, the final loss is finite, every rank
// reports the same loss history and exports bit-identical weights and
// optimizer state, and the history repeats a previous schedule's bit for
// bit (same seed, same data order).
func checkSchedule(o *outcome, s *session, reps []*core.Report, errs []error, prev []*core.Report) {
	for _, rec := range s.meters[0].Records {
		o.attempted++
		if rec.Failed {
			o.failed++
		}
	}
	for r, err := range errs {
		if err != nil {
			o.addWrong("rank %d schedule failed: %v", r, err)
			return
		}
	}
	if l := reps[0].FinalLoss; math.IsNaN(l) || math.IsInf(l, 0) {
		o.addWrong("final loss %v is not finite", l)
	}
	for r := 1; r < len(reps); r++ {
		if !sameHistory(reps[0], reps[r]) {
			o.addWrong("rank %d loss history differs from rank 0", r)
		}
	}
	if prev != nil && prev[0] != nil && !sameHistory(prev[0], reps[0]) {
		o.addWrong("loss history differs from the run's first schedule")
	}
	if len(s.pts) > 1 {
		want, err := exportState(s.pts[0])
		if err != nil {
			o.addWrong("rank 0 export: %v", err)
			return
		}
		for r := 1; r < len(s.pts); r++ {
			got, err := exportState(s.pts[r])
			if err != nil || !bytes.Equal(got, want) {
				o.addWrong("rank %d exported state differs from rank 0 (err %v)", r, err)
			}
		}
	}
}

// exportState is a trainer's ExportState as one byte string: the network
// snapshot followed by the gob-encoded Adam state (gob writes float64
// bits exactly).
func exportState(pt *dist.ParallelTrainer) ([]byte, error) {
	netBytes, opt, err := pt.ExportState()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(netBytes)
	if err := gob.NewEncoder(&buf).Encode(opt); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sameHistory(a, b *core.Report) bool {
	if a == nil || b == nil || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.History {
		x, y := a.History[i], b.History[i]
		if x.Stage != y.Stage || x.Res != y.Res || math.Float64bits(x.Loss) != math.Float64bits(y.Loss) {
			return false
		}
	}
	return true
}

// traceTrain is the traced training run: one untraced schedule as the
// reference, then one traced schedule, whose loss history must match the
// reference bit for bit, then the convolution kernel probe.
func traceTrain(rc *runCtx, spec trainSpec, o *outcome) (*outcome, error) {
	cfg := spec.cfg
	ref, err := newSession(spec, nil)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	refReps, refErrs, _ := ref.run(nil)
	checkSchedule(o, ref, refReps, refErrs, nil)
	ref.close()
	untraced := median(finestEpochs(ref))

	s, err := newSession(spec, rc.tracer)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	reps, errs, wall := s.run(rc.tracer)
	checkSchedule(o, s, reps, errs, refReps)
	s.close()

	// Per finest-level epoch, rank 0's time in each layer: the spans its
	// epoch span parents. What they leave uncovered is the remainder.
	kids := map[int64][]Span{}
	for _, sp := range rc.tracer.Spans() {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	m0 := s.meters[0]
	finest := finestRecords(m0, cfg.FinestRes)
	perEpoch := map[string][]float64{}
	var calls, traced, covered, remainder []float64
	for _, rec := range finest {
		sums := map[string]float64{}
		n, all := 0, 0.0
		for _, c := range kids[rec.SpanID] {
			d := (c.End - c.Start).Seconds()
			sums[c.Name] += d
			all += d
			if c.Name == "field.batch" {
				n++
			}
		}
		for _, l := range []string{"field.batch", "unet.forward", "fem.loss", "unet.backward", "nn.adam"} {
			perEpoch[l] = append(perEpoch[l], sums[l])
		}
		calls = append(calls, float64(n))
		traced = append(traced, rec.Seconds)
		covered = append(covered, all)
		remainder = append(remainder, rec.Seconds-all)
	}

	mm := o.metrics
	var trainS, evalS float64
	for _, rec := range m0.Records {
		if rec.Train {
			trainS += rec.Seconds
		} else {
			evalS += rec.Seconds
		}
	}
	mm["core.epochs"] = float64(len(m0.Records))
	mm["core.train_epoch_s"] = trainS
	mm["core.eval_s"] = evalS
	mm["core.remainder_s"] = wall - trainS - evalS
	mm["field.batch_s"] = median(perEpoch["field.batch"])
	mm["field.batch_calls"] = median(calls)
	mm["unet.forward_s"] = median(perEpoch["unet.forward"])
	mm["unet.backward_s"] = median(perEpoch["unet.backward"])
	mm["fem.loss_s"] = median(perEpoch["fem.loss"])
	mm["nn.adam_s"] = median(perEpoch["nn.adam"])
	if spec.ranks == 1 {
		mm["step.remainder_s"] = median(remainder)
	} else {
		var skew []float64
		for i, rec := range finest {
			lo, hi := rec.Seconds, rec.Seconds
			for _, m := range s.meters[1:] {
				v := finestRecords(m, cfg.FinestRes)[i].Seconds
				lo, hi = min(lo, v), max(hi, v)
			}
			skew = append(skew, hi-lo)
		}
		mm["dist.rank_skew_s"] = median(skew)
		for _, t := range s.trans {
			mm["dist.send_calls"] += float64(t.sends.Load())
			mm["dist.bytes_sent"] += float64(t.bytes.Load())
			mm["dist.recv_wait_s"] += time.Duration(t.recvNanos.Load()).Seconds()
		}
	}
	var allocs, pauses []float64
	for _, rec := range finest {
		allocs = append(allocs, rec.AllocBytes)
		pauses = append(pauses, rec.GCPause)
	}
	mm["mem.alloc_bytes_per_epoch"] = median(allocs)
	mm["mem.gc_pause_s"] = median(pauses)
	epoch := median(traced)
	mm["trace.overhead_frac"] = (epoch - untraced) / untraced
	mm["trace.covered_frac"] = median(covered) / untraced
	mm["trace.remainder_frac"] = median(remainder) / epoch

	n := cfg.BatchSize / spec.ranks
	ncfg := *cfg.Net
	ncfg.Dim = cfg.Dim
	for k, v := range probeLevels(ncfg, n, cfg.FinestRes, rc.seed, rc.tracer) {
		mm[k] = v
	}
	o.report["finest_epochs_traced"] = summarize(traced)
	o.report["finest_epoch_untraced_s"] = untraced
	return o, nil
}

func finestRecords(m *meteredBackend, res int) []epochRecord {
	var out []epochRecord
	for _, rec := range m.Records {
		if rec.Train && rec.Res == res {
			out = append(out, rec)
		}
	}
	return out
}
