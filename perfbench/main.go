// Command perfbench is the repository's benchmark: it runs one workload —
// full multigrid training schedules, or open- and closed-loop HTTP load
// against a built mgserve — checks every output, and prints the end-to-end metrics,
// or with -trace 1 the per-layer metrics, as the last line of standard
// output. perfbench/run.sh builds it and mgserve from the checkout's
// sources and runs it from the repository root:
//
//	bash perfbench/run.sh --workload serve-2d-cold --seed 7 --seconds 20 --trace 0
//
// The benchmark stays outside the program: it drives the public API
// (core.RunSchedule, dist.ParallelTrainer, dist.NewLocalTCPWorld,
// serve.Engine) and mgserve over HTTP, and measures layers by timing calls
// into their public functions and interfaces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names a metric and its unit. The tables below are the
// benchmark's metric contract; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd is every end-to-end metric. Each workload measures each of
// them, on its own unit of work:
//
//   - setup_s: building the trainer (or TCP world), or starting mgserve
//     until /readyz answers with the model loaded and warmed.
//   - job_s: the whole job a user waits for: one full Half-V schedule, or
//     answering a fixed set of queries sent closed-loop over clientConns
//     connections.
//   - op_ms: one operation: a finest-level training epoch, or the median
//     request at the workload's fixed, light open-loop rate.
//   - final_loss: the FEM energy loss at the end of the schedule, or the
//     mean energy loss of the served answers to a fixed set of ω; both
//     repeat exactly unless the arithmetic changes.
//   - ok_frac: operations that succeeded with a correct output, out of
//     those attempted.
//   - peak_rss_mb: peak resident set of the trainer or of mgserve.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"job_s", "s"}, {"op_ms", "ms"}, {"final_loss", "1"},
	{"ok_frac", "frac"}, {"peak_rss_mb", "MB"},
}

// layerMetrics is every per-layer metric. A traced run prints all of them;
// a layer a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"core.epochs", "count"}, {"core.train_epoch_s", "s"}, {"core.eval_s", "s"}, {"core.remainder_s", "s"},
	{"field.batch_s", "s"}, {"field.batch_calls", "count"},
	{"unet.forward_s", "s"}, {"unet.backward_s", "s"}, {"fem.loss_s", "s"}, {"nn.adam_s", "s"}, {"step.remainder_s", "s"},
	{"nn.conv.fwd_gflops.L0", "GFLOP/s"}, {"nn.conv.fwd_gflops.L1", "GFLOP/s"}, {"nn.conv.fwd_gflops.L2", "GFLOP/s"}, {"nn.conv.fwd_gflops.L3", "GFLOP/s"},
	{"nn.conv.bwd_gflops.L0", "GFLOP/s"}, {"nn.conv.bwd_gflops.L1", "GFLOP/s"}, {"nn.conv.bwd_gflops.L2", "GFLOP/s"}, {"nn.conv.bwd_gflops.L3", "GFLOP/s"},
	{"nn.conv.flop_per_byte.L0", "flop/B"}, {"nn.conv.flop_per_byte.L1", "flop/B"}, {"nn.conv.flop_per_byte.L2", "flop/B"}, {"nn.conv.flop_per_byte.L3", "flop/B"},
	{"dist.send_calls", "count"}, {"dist.bytes_sent", "B"}, {"dist.recv_wait_s", "s"}, {"dist.rank_skew_s", "s"},
	{"mem.alloc_bytes_per_epoch", "B"}, {"mem.gc_pause_s", "s"},
	{"serve.forwards", "count"}, {"serve.batch_mean", "count"}, {"serve.cache_hit_frac", "frac"}, {"serve.shared_frac", "frac"}, {"serve.shed_frac", "frac"},
	{"serve.engine_ms.p50", "ms"}, {"serve.engine_ms.p99", "ms"}, {"http.overhead_ms.p50", "ms"}, {"http.ttfb_ms.p50", "ms"}, {"http.resp_bytes", "B"},
	{"unet.forward_ms.b1", "ms"}, {"unet.forward_ms.b2", "ms"}, {"unet.forward_ms.b4", "ms"}, {"unet.forward_ms.b8", "ms"},
	{"field.raster_ms", "ms"}, {"fem.withbc_ms", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"trace.overhead_frac", "frac"}, {"trace.covered_frac", "frac"}, {"trace.remainder_frac", "frac"},
}

// workload is one benchmark workload.
type workload struct {
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	run func(rc *runCtx) (*outcome, error)
}

var workloads = map[string]workload{
	"train-3d-p1": {
		why: "one 3D Half-V schedule 8^3->32^3 in one process: Conv3D (direct below 32^3, GEMM at 32^3) and the 3D FEM loss; no communication",
		run: func(rc *runCtx) (*outcome, error) { return runTrain(rc, spec3D()) },
	},
	"train-2d-p2": {
		why: "one 2D Half-V schedule 16^2->64^2 on two TCP ranks over loopback: small compute, so the bucketed allreduce and TCP framing take a large share",
		run: func(rc *runCtx) (*outcome, error) { return runTrain(rc, spec2DP2()) },
	},
	"serve-2d-cold": {
		why: "mgserve, every omega distinct so cache and single-flight never fire: each request pays raster, forward, BC, encode. Open loop 150/s; jobs of 128",
		run: func(rc *runCtx) (*outcome, error) { return runServe(rc, coldMix()) },
	},
	"serve-2d-hot": {
		why: "mgserve, omega from a skewed pool of 16, 1 in 8 requests a 4-omega /solve-batch: hits and flight joins dominate. Open loop 300/s; jobs of 1024",
		run: func(rc *runCtx) (*outcome, error) { return runServe(rc, hotMix()) },
	},
}

// runCtx carries one run's arguments.
type runCtx struct {
	root    string // repository root
	work    string // scratch directory of this run, under .bench_build
	seed    int64
	seconds float64
	tracer  *Tracer // nil unless -trace 1
}

func (rc *runCtx) traced() bool { return rc.tracer != nil }

// outcome is what a workload hands back.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	wrong     []string       // wrong answers, described
	invalid   []string       // reasons the measurement itself is invalid
	report    map[string]any // configuration, sizes, rates, sample counts
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// addWrong records a wrong answer; it also counts as a failed operation.
func (o *outcome) addWrong(format string, args ...any) {
	o.failed++
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	work := filepath.Join(rootAbs, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	rc := &runCtx{root: rootAbs, work: work, seed: *seed, seconds: *seconds}
	if *trace == 1 {
		rc.tracer = newTracer()
	}

	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if rc.traced() {
		defs = layerMetrics
	}
	res := result{
		Correct:   len(out.wrong) == 0 && len(out.invalid) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", *name, d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", *name)
		return 1
	}

	rep := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": environment(rootAbs), "wrong": out.wrong, "invalid": out.invalid,
		"run": out.report,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if rc.traced() {
		spans := rc.tracer.Spans()
		rep["trace_self"] = selfTimes(spans)
		if err := writeTrace(filepath.Join(rootAbs, ".bench_build", "traces", base+".jsonl"), spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := saveJSON(filepath.Join(rootAbs, ".bench_build", "results", base+".json"), rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range append(slices.Clone(out.wrong), out.invalid...) {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, msg)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func saveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("save report: %w", err)
	}
	return nil
}
