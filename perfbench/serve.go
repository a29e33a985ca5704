package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mgdiffnet/internal/fem"
	"mgdiffnet/internal/field"
	"mgdiffnet/internal/serve"
	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// mix is one serving workload: the model, the request stream, the fixed
// rate its latency is measured at and the size of its job.
type mix struct {
	res     int
	filters int
	rate    float64 // offered rate of the open-loop phase, 1/s
	// phaseShare is the part of the run's seconds the open-loop phase
	// takes; the jobs take the rest.
	phaseShare float64
	// job is the number of requests in one job: a fixed set of queries
	// sent closed-loop over clientConns connections, timed to the last
	// answer.
	job int
	// pool is the number of distinct ω requests draw from, with a skewed
	// (Zipf) choice; 0 makes every ω distinct.
	pool int
	// Every batchEvery-th request is a /solve-batch of batchSize ω
	// (0 = never).
	batchEvery, batchSize int
}

// coldMix is serve-2d-cold: every request carries a fresh ω, so every
// request pays raster, forward, boundary conditions and encode, and the
// cache and single-flight dedup never fire. Its open-loop rate is about a
// third of the capacity of the two-core reference host (about 450/s).
func coldMix() mix {
	return mix{res: 16, filters: 4, rate: 150, phaseShare: 0.5, job: 128}
}

// hotMix is serve-2d-hot: ω comes from a small skewed pool and one request
// in eight is a 4-ω /solve-batch, so most work is cache hits and joins of
// a flight already running. Its open-loop rate is well under its capacity
// of about 2000/s.
func hotMix() mix {
	return mix{res: 32, filters: 4, rate: 300, phaseShare: 0.5, job: 1024,
		pool: 16, batchEvery: 8, batchSize: 4}
}

func (m mix) describe() map[string]any {
	return map[string]any{
		"res": m.res, "filters": m.filters, "rate_rps": m.rate, "phase_share": m.phaseShare,
		"job_requests": m.job, "pool": m.pool, "batch_every": m.batchEvery, "batch_size": m.batchSize,
		"arrivals": "even", "client_conns": clientConns, "model_seed": modelSeed, "eval_omegas": evalOmegas,
	}
}

const (
	// clientConns is the load generator's connection cap, and the number
	// of closed-loop workers of a job: one process, at most one
	// connection per core of the two-core reference box.
	clientConns = 2
	// phaseMinRequests gives the open-loop phase enough samples that at
	// least ten lie beyond its pooled p99, and each of its rounds more
	// than a hundred samples.
	phaseMinRequests = 1100
	// rounds is the number of servers the load of one run is spread over.
	rounds = 11
	// minJobs is the fewest jobs a run times.
	minJobs = 5
	// maxLateMS is how late, at p99, the generator may send before a run
	// is invalid: beyond it the offered rate was not the stated one.
	maxLateMS = 10.0
	// checkEvery is the sampling stride of the bit-exact reference check
	// on the cold workload (the hot workload checks every answer).
	checkEvery = 8
	// setupStarts is how many times a run starts mgserve to report the
	// median start-up time.
	setupStarts = 15
	// modelSeed seeds the served model. It is fixed, like the training
	// workloads' seed, so final_loss does not depend on the run's seed;
	// the seed drives the request streams.
	modelSeed = 42
	// evalOmegas is the size of the fixed ω set final_loss is taken over.
	evalOmegas = 8
)

// serveBench holds one serving run's state.
type serveBench struct {
	rc     *runCtx
	m      mix
	rng    *rand.Rand
	model  string
	bin    string
	pool   []field.Omega
	zipf   *rand.Zipf
	client *http.Client
	check  *checker
	// omegas[tag] are the ω a planned request asked for.
	omegas [][]field.Omega
}

func newServeBench(rc *runCtx, m mix) (*serveBench, error) {
	b := &serveBench{rc: rc, m: m, rng: rand.New(rand.NewSource(rc.seed)),
		bin: filepath.Join(rc.root, ".bench_build", "bin", "mgserve"), client: newClient(clientConns)}
	if _, err := os.Stat(b.bin); err != nil {
		return nil, fmt.Errorf("mgserve binary: %w (build it with perfbench/run.sh)", err)
	}
	cfg := unet.DefaultConfig(2)
	cfg.BaseFilters = m.filters
	cfg.Seed = modelSeed
	b.model = filepath.Join(rc.work, "model.gob")
	if err := unet.New(cfg).SaveFile(b.model); err != nil {
		return nil, err
	}
	net, err := unet.LoadFile(b.model)
	if err != nil {
		return nil, err
	}
	b.check = &checker{net: net, loss: fem.NewEnergyLoss(2), res: m.res, ref: map[field.Omega][]float64{}}
	if m.pool > 0 {
		for range m.pool {
			b.pool = append(b.pool, b.randomOmega())
		}
		b.zipf = rand.NewZipf(b.rng, 1.2, 1, uint64(m.pool-1))
	}
	return b, nil
}

func (b *serveBench) randomOmega() field.Omega {
	var w field.Omega
	for i := range w {
		w[i] = -field.OmegaRange + 2*field.OmegaRange*b.rng.Float64()
	}
	return w
}

func (b *serveBench) nextOmega() field.Omega {
	if b.zipf != nil {
		return b.pool[b.zipf.Uint64()]
	}
	return b.randomOmega()
}

// requests builds the next n requests of the workload's stream.
func (b *serveBench) requests(n int) []plannedReq {
	out := make([]plannedReq, n)
	for i := range out {
		var ws []field.Omega
		if b.m.batchEvery > 0 && i%b.m.batchEvery == b.m.batchEvery-1 {
			for range b.m.batchSize {
				ws = append(ws, b.nextOmega())
			}
			out[i] = b.request(ws, true)
		} else {
			out[i] = b.request([]field.Omega{b.nextOmega()}, false)
		}
	}
	return out
}

// request builds one /solve, or with batch a /solve-batch, for ws.
func (b *serveBench) request(ws []field.Omega, batch bool) plannedReq {
	rq := plannedReq{path: "/solve", tag: len(b.omegas)}
	var body any
	if batch {
		rq.path = "/solve-batch"
		vals := make([][]float64, len(ws))
		for k, w := range ws {
			vals[k] = w[:]
		}
		body = map[string]any{"omegas": vals, "res": b.m.res}
	} else {
		body = map[string]any{"omega": ws[0][:], "res": b.m.res}
	}
	rq.body, _ = json.Marshal(body) // maps of floats and ints always encode
	b.omegas = append(b.omegas, ws)
	return rq
}

// plan builds n requests arriving evenly at the given rate.
func (b *serveBench) plan(rate float64, n int) []plannedReq {
	reqs := b.requests(n)
	for i, due := range evenDues(rate, n) {
		reqs[i].due = due
	}
	return reqs
}

// phaseLen returns how many requests a phase at rate sends: share of the
// run's seconds, but never fewer than phaseMinRequests.
func (b *serveBench) phaseLen(rate, share float64) int {
	return max(phaseMinRequests, int(rate*share*b.rc.seconds))
}

// phase runs one fixed-rate open-loop phase of planned requests and
// checks its answers.
func (b *serveBench) phase(o *outcome, base string, reqs []plannedReq, tr *Tracer) []sample {
	samples := openLoop(context.Background(), b.client, base, reqs, tr)
	b.checkSamples(o, reqs, samples)
	return samples
}

// job sends one job's requests closed-loop, checks the answers, and
// returns the time until the last answer arrived.
func (b *serveBench) job(o *outcome, base string, tr *Tracer) time.Duration {
	reqs := b.requests(b.m.job)
	samples, wall := closedLoop(context.Background(), b.client, base, reqs, clientConns, tr)
	b.checkSamples(o, reqs, samples)
	return wall
}

func (b *serveBench) checkSamples(o *outcome, reqs []plannedReq, samples []sample) {
	for i, s := range samples {
		o.attempted++
		if s.failed() {
			o.failed++
			continue
		}
		b.checkAnswer(o, reqs[i], s.body, i)
	}
}

// evalLoss asks the server for the fixed evaluation set of ω, checks each
// answer bit for bit against the reference, and returns the mean FEM
// energy loss of the served fields.
func (b *serveBench) evalLoss(o *outcome, base string) float64 {
	rng := rand.New(rand.NewSource(modelSeed))
	var reqs []plannedReq
	for range evalOmegas {
		var w field.Omega
		for i := range w {
			w[i] = -field.OmegaRange + 2*field.OmegaRange*rng.Float64()
		}
		reqs = append(reqs, b.request([]field.Omega{w}, false))
	}
	samples, _ := closedLoop(context.Background(), b.client, base, reqs, 1, nil)
	res := b.m.res
	total := 0.0
	for i, s := range samples {
		o.attempted++
		if s.failed() {
			o.failed++
			continue
		}
		var a answer
		if err := json.Unmarshal(s.body, &a); err != nil {
			o.addWrong("evaluation request %d: bad JSON: %v", i, err)
			continue
		}
		w := b.omegas[reqs[i].tag][0]
		if msg := b.check.verify(a, w, true, false); msg != "" {
			o.addWrong("evaluation request %d: %s", i, msg)
			continue
		}
		pred, nu := tensor.New(1, 1, res, res), tensor.New(1, 1, res, res)
		copy(pred.Data, a.U)
		field.RasterInto(nu.Data, w, 2, res)
		loss, _ := b.check.loss.Eval(pred, nu)
		total += loss
	}
	return total / evalOmegas
}

// checkAnswer checks one 200 answer: its layout, finiteness, flags, and —
// for every hot answer and a fixed sample of cold ones — bit-identity
// with an in-process reference forward pass.
func (b *serveBench) checkAnswer(o *outcome, rq plannedReq, body []byte, i int) {
	ws := b.omegas[rq.tag]
	var answers []answer
	if rq.path == "/solve-batch" {
		var br struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			o.addWrong("request %d: bad batch JSON: %v", rq.tag, err)
			return
		}
		answers = br.Results
	} else {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			o.addWrong("request %d: bad JSON: %v", rq.tag, err)
			return
		}
		answers = []answer{a}
	}
	if len(answers) != len(ws) {
		o.addWrong("request %d: %d answers for %d omegas", rq.tag, len(answers), len(ws))
		return
	}
	exact := b.m.pool > 0 || i%checkEvery == 0
	for k, a := range answers {
		if msg := b.check.verify(a, ws[k], exact, b.m.pool == 0); msg != "" {
			o.addWrong("request %d answer %d: %s", rq.tag, k, msg)
			return
		}
	}
}

// answer is the part of an mgserve /solve response the checks read.
type answer struct {
	Res      int       `json:"res"`
	Dim      int       `json:"dim"`
	Cached   bool      `json:"cached"`
	Shared   bool      `json:"shared"`
	Degraded bool      `json:"degraded"`
	U        []float64 `json:"u"`
}

// checker holds the in-process reference: the model file loaded with
// unet.LoadFile, a forward pass and fem.EnergyLoss.WithBC, exactly as a
// user of the packages would compute the field. It is used from one
// goroutine.
type checker struct {
	net  *unet.UNet
	loss *fem.EnergyLoss
	res  int
	ref  map[field.Omega][]float64
}

func (c *checker) reference(w field.Omega) []float64 {
	if u, ok := c.ref[w]; ok {
		return u
	}
	in := tensor.New(1, 1, c.res, c.res)
	field.RasterInto(in.Data, w, 2, c.res)
	u := c.loss.WithBC(c.net.Forward(in, false)).Data
	c.ref[w] = u
	return u
}

// verify returns "" for a correct answer or what is wrong with it. distinct
// says every ω of the workload is fresh, so no answer may be a cache hit
// or a shared flight.
func (c *checker) verify(a answer, w field.Omega, exact, distinct bool) string {
	switch {
	case a.Res != c.res || a.Dim != 2:
		return fmt.Sprintf("layout res %d dim %d, want %d and 2", a.Res, a.Dim, c.res)
	case a.Degraded:
		return "degraded answer"
	case len(a.U) != c.res*c.res:
		return fmt.Sprintf("%d values, want %d", len(a.U), c.res*c.res)
	case distinct && (a.Cached || a.Shared):
		return "cache hit or shared flight for an omega never sent before"
	}
	for _, v := range a.U {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite value"
		}
	}
	if exact {
		ref := c.reference(w)
		for j, v := range a.U {
			if math.Float64bits(v) != math.Float64bits(ref[j]) {
				return fmt.Sprintf("value %d is %v, reference %v", j, v, ref[j])
			}
		}
	}
	return ""
}

// server is one running mgserve process.
type server struct {
	cmd      *exec.Cmd
	base     string
	exited   chan error
	stderr   *tailBuffer
	stopOnce sync.Once
}

// startServer launches mgserve on a free loopback port and returns once
// /readyz answers 200, with the time that took: process start, model load
// and warm-up.
func (b *serveBench) startServer() (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr, exited: make(chan error, 1), stderr: &tailBuffer{}}
	s.cmd = exec.Command(b.bin, "-model", b.model, "-addr", addr, "-warm", strconv.Itoa(b.m.res))
	s.cmd.Stderr = s.stderr
	// If the benchmark dies without stopping it, the server dies too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("mgserve exited during start-up: %v: %s", err, s.stderr)
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("mgserve not ready within 60s")
}

// stop sends SIGTERM, waits for the graceful shutdown, and kills the
// process if it has not exited within ten seconds.
// Stopping twice is harmless.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// serverStats is the part of /stats the per-layer metrics use.
type serverStats struct {
	Requests        uint64 `json:"requests"`
	CacheHits       uint64 `json:"cache_hits"`
	SharedInFlight  uint64 `json:"shared_in_flight"`
	Forwards        uint64 `json:"forwards"`
	BatchedRequests uint64 `json:"batched_requests"`
	Shed            uint64 `json:"shed"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// sub returns the counter increments from before to s.
func (s serverStats) sub(before serverStats) serverStats {
	return serverStats{
		Requests:        s.Requests - before.Requests,
		CacheHits:       s.CacheHits - before.CacheHits,
		SharedInFlight:  s.SharedInFlight - before.SharedInFlight,
		Forwards:        s.Forwards - before.Forwards,
		BatchedRequests: s.BatchedRequests - before.BatchedRequests,
		Shed:            s.Shed - before.Shed,
	}
}

// layerMetrics turns a /stats delta into the serve.* per-layer metrics:
// forward passes, requests per forward pass, and the shares of engine
// requests answered from the cache, by joining a running flight, or shed.
func (s serverStats) layerMetrics() map[string]float64 {
	frac := func(n uint64) float64 {
		if s.Requests == 0 {
			return 0
		}
		return float64(n) / float64(s.Requests)
	}
	mean := 0.0
	if s.Forwards > 0 {
		mean = float64(s.BatchedRequests) / float64(s.Forwards)
	}
	return map[string]float64{
		"serve.forwards":       float64(s.Forwards),
		"serve.batch_mean":     mean,
		"serve.cache_hit_frac": frac(s.CacheHits),
		"serve.shared_frac":    frac(s.SharedInFlight),
		"serve.shed_frac":      frac(s.Shed),
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or a
// pid) from /proc.
func peakRSSMB(pid string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// latencies returns the latencies in ms of a phase's samples and its
// generator lateness p99.
func latencies(samples []sample) ([]float64, float64) {
	var lat, late []float64
	for _, s := range samples {
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
	}
	p, _ := percentile(late, 0.99)
	return lat, p
}

func runServe(rc *runCtx, m mix) (*outcome, error) {
	o := newOutcome()
	o.report["config"] = m.describe()
	b, err := newServeBench(rc, m)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for range setupStarts {
		srv, d, err := b.startServer()
		if err != nil {
			return nil, err
		}
		srv.stop()
		setups = append(setups, d.Seconds())
	}
	o.metrics["setup_s"] = median(setups)
	o.report["setup_s"] = summarize(setups)
	if rc.traced() {
		return b.trace(o)
	}

	// The load runs in rounds, each on a fresh server: an open-loop slice,
	// then jobs. mgserve's peak resident set depends on where its garbage
	// collections fall, so peak_rss_mb is the median over the rounds'
	// servers, and op_ms the median of the rounds' medians, so that one
	// stall of the shared host moves one round, not the result.
	var p50s, jobs, rss []float64
	var phase []sample
	n := b.phaseLen(m.rate, m.phaseShare) / rounds
	budget := (1 - m.phaseShare) * rc.seconds / rounds
	var srv *server
	defer func() { srv.stop() }()
	for r := range rounds {
		srv, _, err = b.startServer()
		if err != nil {
			return nil, err
		}
		samples := b.phase(o, srv.base, b.plan(m.rate, n), nil)
		phase = append(phase, samples...)
		l, _ := latencies(samples)
		p50s = append(p50s, median(l))
		start := time.Now()
		for len(jobs) < (r+1)*minJobs/rounds || time.Since(start).Seconds() < budget {
			jobs = append(jobs, b.job(o, srv.base, nil).Seconds())
		}
		if r == rounds-1 {
			o.metrics["final_loss"] = b.evalLoss(o, srv.base)
		}
		rss = append(rss, peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)))
		srv.stop()
	}
	lat, late := latencies(phase)
	if late > maxLateMS {
		o.invalid = append(o.invalid, fmt.Sprintf("generator p99 lateness %.1f ms exceeds %.0f ms", late, maxLateMS))
	}
	o.metrics["op_ms"] = median(p50s)
	o.metrics["job_s"] = median(jobs)
	o.metrics["peak_rss_mb"] = median(rss)
	o.report["phase"] = map[string]any{"latency_ms": summarize(lat), "round_p50_ms": p50s, "late_p99_ms": late}
	o.report["jobs_s"] = summarize(jobs)
	o.report["peak_rss_mb"] = rss
	o.metrics["ok_frac"] = okFrac(o)
	return o, nil
}

// tailBuffer keeps the last few KiB written to it (a child's stderr).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 4096 {
		t.buf = t.buf[n-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// trace is the traced serving run. It measures the open-loop phase
// untraced on one server and traced on a fresh one (a warm cache would
// change the second run's hits), then minJobs jobs traced, reading /stats
// around the traced part; then it replays the untraced stream into an
// in-process serve.Engine, times isolated layer calls at the serving
// shapes, and probes the convolution kernels. Its phases are half as long
// as an untraced run's, since it runs the stream three times.
func (b *serveBench) trace(o *outcome) (*outcome, error) {
	m, tr, mm := b.m, b.rc.tracer, o.metrics
	srv, _, err := b.startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	plan := b.plan(m.rate, b.phaseLen(m.rate, m.phaseShare/2))
	untraced := b.phase(o, srv.base, plan, nil)
	srv.stop()
	srv, _, err = b.startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	traced := b.phase(o, srv.base, b.plan(m.rate, b.phaseLen(m.rate, m.phaseShare/2)), tr)
	for range minJobs {
		b.job(o, srv.base, tr)
	}
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	srv.stop()
	for k, v := range after.sub(before).layerMetrics() {
		mm[k] = v
	}

	latU, lateU := latencies(untraced)
	latT, lateT := latencies(traced)
	mm["gen.late_ms.p99"] = max(lateU, lateT)
	p50U := median(latU)
	mm["trace.overhead_frac"] = (median(latT) - p50U) / p50U
	var ttfb, size []float64
	for _, s := range traced {
		if !s.failed() {
			ttfb = append(ttfb, ms(s.ttfb))
			size = append(size, float64(len(s.body)))
		}
	}
	mm["http.ttfb_ms.p50"] = median(ttfb)
	mm["http.resp_bytes"] = median(size)
	if req := selfOf(selfTimes(tr.Spans()), "http.request"); req.Total > 0 {
		mm["trace.remainder_frac"] = float64(req.Self) / float64(req.Total)
		mm["trace.covered_frac"] = 1 - mm["trace.remainder_frac"]
	}

	eng, err := serve.NewEngine(serve.Config{
		Net: b.check.net.Clone(), MaxBatch: 8, BatchWindow: 2 * time.Millisecond,
		CacheSize: 256, CacheMB: 256, SlabVoxels: 1 << 21, SlabWorkers: 2, WarmRes: []int{m.res},
	})
	if err != nil {
		return nil, err
	}
	engLat := b.replay(o, eng, plan)
	eng.Close()
	mm["serve.engine_ms.p50"] = median(engLat)
	mm["serve.engine_ms.p99"], _ = percentile(engLat, 0.99)
	mm["http.overhead_ms.p50"] = p50U - mm["serve.engine_ms.p50"]
	o.report["engine_ms"] = summarize(engLat)
	o.report["phase_untraced"] = summarize(latU)
	o.report["phase_traced"] = summarize(latT)

	for k, v := range b.isolated() {
		mm[k] = v
	}
	cfg := b.check.net.Cfg
	for k, v := range probeLevels(cfg, 1, m.res, b.rc.seed, tr) {
		mm[k] = v
	}
	return o, nil
}

// replay sends the planned stream straight into an in-process engine on
// the same schedule, then checks the answers like HTTP answers, and
// returns each request's latency in ms from its due time.
func (b *serveBench) replay(o *outcome, eng *serve.Engine, reqs []plannedReq) []float64 {
	lat := make([]float64, len(reqs))
	results := make([][]serve.Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, rq := range reqs {
		due := t0.Add(rq.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := b.omegas[rq.tag]
			qs := make([]serve.Query, len(ws))
			for k, w := range ws {
				qs[k] = serve.Query{Omega: w, Res: b.m.res}
			}
			results[i], errs[i] = eng.SolveQueries(context.Background(), qs)
			lat[i] = ms(time.Since(due))
		}()
	}
	wg.Wait()
	for i, rq := range reqs {
		o.attempted++
		if errs[i] != nil {
			o.failed++
			continue
		}
		ws := b.omegas[rq.tag]
		for k, r := range results[i] {
			a := answer{Res: r.Res, Dim: r.Dim, Cached: r.Cached, Shared: r.Shared, Degraded: r.Degraded, U: r.U}
			if msg := b.check.verify(a, ws[k], b.m.pool > 0 || i%checkEvery == 0, b.m.pool == 0); msg != "" {
				o.addWrong("engine replay request %d answer %d: %s", rq.tag, k, msg)
				break
			}
		}
	}
	return lat
}

// isolated times single calls into the layers a cold request passes
// through, at the serving shapes: the U-Net forward pass at each batch
// size up to mgserve's default -max-batch, rasterizing one ω, and imposing
// the boundary conditions on one field.
func (b *serveBench) isolated() map[string]float64 {
	res := b.m.res
	out := map[string]float64{}
	timeIt := func(reps int, f func()) float64 {
		f()
		var xs []float64
		for range reps {
			t := time.Now()
			f()
			xs = append(xs, ms(time.Since(t)))
		}
		return median(xs)
	}
	w := b.randomOmega()
	for _, n := range []int{1, 2, 4, 8} {
		in := tensor.New(n, 1, res, res)
		for k := range n {
			field.RasterInto(in.Data[k*res*res:(k+1)*res*res], w, 2, res)
		}
		out[fmt.Sprintf("unet.forward_ms.b%d", n)] = timeIt(15, func() { b.check.net.Forward(in, false) })
	}
	dst := make([]float64, res*res)
	out["field.raster_ms"] = timeIt(100, func() { field.RasterInto(dst, w, 2, res) })
	pred := tensor.New(1, 1, res, res)
	out["fem.withbc_ms"] = timeIt(100, func() { b.check.loss.WithBC(pred) })
	return out
}
