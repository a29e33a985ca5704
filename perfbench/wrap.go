package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/dist"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/tensor"
)

// The wrappers below measure the core, field and dist layers from outside
// the program: each forwards every call to the value it wraps and records
// what it measures — call durations, traffic, a span per call when a
// Tracer is set. Each wrapper also
// forwards every optional interface the program looks for by type
// assertion on the wrapped value — core.AdaptingBackend and
// core.StatefulBackend on a backend, the BatchInto fast path on a data
// source — and nothing more, so a wrapped run takes the same code path as
// an unwrapped one.

// epochRecord is one TrainEpoch or EvalLoss call seen by a meteredBackend.
type epochRecord struct {
	Res     int
	Train   bool
	Seconds float64
	Loss    float64
	Failed  bool
	SpanID  int64
	// Process-wide runtime/metrics deltas over the call; read only when
	// tracing.
	AllocBytes float64
	GCPause    float64
}

// meteredBackend wraps a core.EpochBackend.
type meteredBackend struct {
	inner core.EpochBackend
	// train replaces inner.TrainEpoch when set: the traced single-process
	// run substitutes a step loop that times each layer call.
	train func(res int) (float64, error)
	tr    *Tracer
	root  spanRef
	cur   spanRef // span of the epoch in progress; parent for layer spans

	Records []epochRecord
}

func (b *meteredBackend) TrainEpoch(res int) (float64, error) {
	train := b.train
	if train == nil {
		train = b.inner.TrainEpoch
	}
	return b.call("core.train_epoch", res, true, train)
}

func (b *meteredBackend) EvalLoss(res int) (float64, error) {
	return b.call("core.eval", res, false, b.inner.EvalLoss)
}

func (b *meteredBackend) Params() []*nn.Param { return b.inner.Params() }

func (b *meteredBackend) call(name string, res int, train bool, f func(int) (float64, error)) (float64, error) {
	var m0 runtimeSample
	if b.tr != nil {
		m0 = readRuntime()
	}
	b.cur = b.tr.Start(name, b.root, 0)
	start := time.Now()
	loss, err := f(res)
	d := time.Since(start)
	b.cur.End()
	rec := epochRecord{Res: res, Train: train, Seconds: d.Seconds(), Loss: loss, Failed: err != nil, SpanID: b.cur.id()}
	if b.tr != nil {
		m1 := readRuntime()
		rec.AllocBytes = m1.allocBytes - m0.allocBytes
		rec.GCPause = m1.gcPause - m0.gcPause
	}
	b.Records = append(b.Records, rec)
	return loss, err
}

// parent is the span layer calls inside the current epoch hang under.
func (b *meteredBackend) parent() spanRef { return b.cur }

// wrapBackend returns b metered by m, implementing exactly the optional
// backend interfaces that b implements.
func wrapBackend(b core.EpochBackend, m *meteredBackend) core.EpochBackend {
	m.inner = b
	a, isA := b.(core.AdaptingBackend)
	s, isS := b.(core.StatefulBackend)
	switch {
	case isA && isS:
		return struct {
			*meteredBackend
			core.AdaptingBackend
			core.StatefulBackend
		}{m, a, s}
	case isA:
		return struct {
			*meteredBackend
			core.AdaptingBackend
		}{m, a}
	case isS:
		return struct {
			*meteredBackend
			core.StatefulBackend
		}{m, s}
	}
	return m
}

// meteredData wraps a core.DataSource (dist.DataSource has the same
// methods) and records a span per batch. It is safe for concurrent Batch
// calls when the wrapped source is.
type meteredData struct {
	inner  core.DataSource
	tr     *Tracer
	parent func() spanRef
}

func (d *meteredData) Len() int { return d.inner.Len() }

func (d *meteredData) Batch(start, count, res int) *tensor.Tensor {
	defer d.span()()
	return d.inner.Batch(start, count, res)
}

func (d *meteredData) span() func() {
	var parent spanRef
	if d.parent != nil {
		parent = d.parent()
	}
	return d.tr.Start("field.batch", parent, 0).End
}

// batchInto is the fast path dist looks for on a data source.
type batchInto interface {
	BatchInto(dst *tensor.Tensor, start, count, res int) *tensor.Tensor
}

type meteredDataInto struct {
	*meteredData
	into batchInto
}

func (d meteredDataInto) BatchInto(dst *tensor.Tensor, start, count, res int) *tensor.Tensor {
	defer d.span()()
	return d.into.BatchInto(dst, start, count, res)
}

// wrapData returns src metered by m, keeping the BatchInto fast path when
// src has it.
func wrapData(src core.DataSource, m *meteredData) core.DataSource {
	m.inner = src
	if bi, ok := src.(batchInto); ok {
		return meteredDataInto{m, bi}
	}
	return m
}

// meteredTransport wraps one dist.Transport endpoint and counts its
// traffic. dist looks for no optional interface on a Transport, so the
// four methods are all there is to forward.
type meteredTransport struct {
	dist.Transport
	tr     *Tracer
	parent func() spanRef

	sends     atomic.Int64
	bytes     atomic.Int64
	recvNanos atomic.Int64
}

func (t *meteredTransport) Send(to int, buf []float64) error {
	t.sends.Add(1)
	t.bytes.Add(8 * int64(len(buf)))
	return t.Transport.Send(to, buf)
}

func (t *meteredTransport) Recv(from int, buf []float64) error {
	var parent spanRef
	if t.parent != nil {
		parent = t.parent()
	}
	sp := t.tr.Start("dist.recv", parent, 0)
	start := time.Now()
	err := t.Transport.Recv(from, buf)
	t.recvNanos.Add(int64(time.Since(start)))
	sp.End()
	return err
}

// runtimeSample holds the cumulative runtime/metrics values the traced
// runs difference per epoch.
type runtimeSample struct {
	allocBytes float64
	gcPause    float64 // seconds the world was stopped for GC
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
		{Name: "/sched/gomaxprocs:threads"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	// The pause metric counts GOMAXPROCS CPU-seconds per second of
	// stopped world; dividing gives wall-clock pause time.
	if s[1].Value.Kind() == metrics.KindFloat64 && s[2].Value.Kind() == metrics.KindUint64 {
		if p := s[2].Value.Uint64(); p > 0 {
			out.gcPause = s[1].Value.Float64() / float64(p)
		}
	}
	return out
}
