package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "epoch", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50); a third covers [60,70);
		// a fourth sticks out past the parent's end and is clipped.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "b", Start: 95 * ms, End: 120 * ms},
	}
	st := selfTimes(spans)
	if e := selfOf(st, "epoch"); e.Total != 100*ms || e.Self != 45*ms {
		t.Errorf("epoch total %v self %v, want 100ms and 45ms", e.Total, e.Self)
	}
	if a := selfOf(st, "a"); a.Count != 2 || a.Self != 50*ms {
		t.Errorf("a count %d self %v, want 2 and 50ms", a.Count, a.Self)
	}
}

func TestTracerSpansShareTraceWithParent(t *testing.T) {
	tr := newTracer()
	root := tr.Start("request", spanRef{}, 0)
	child := tr.Start("server", root, 0)
	child.End()
	root.End()
	open := tr.Start("unfinished", spanRef{}, 0)
	_ = open
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Trace != spans[0].Trace {
		t.Errorf("child %+v does not hang under root %+v", spans[1], spans[0])
	}
	var off *Tracer
	off.Start("x", spanRef{}, 0).End() // a nil tracer records nothing
	if off.Spans() != nil {
		t.Error("nil tracer returned spans")
	}
}
