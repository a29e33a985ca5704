package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one training
// epoch or one HTTP request share a Trace ID; Parent is the ID of the span
// that caused this one (0 for a root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs execute the same code with tracing off.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// spanRef is an open span; End closes it. The zero spanRef (from a nil
// Tracer) is inert.
type spanRef struct {
	t   *Tracer
	idx int
}

// Start opens a span now.
func (t *Tracer) Start(name string, parent spanRef, trace int64) spanRef {
	return t.StartAt(name, parent, trace, time.Now())
}

// StartAt opens a span that began at the given time, which may be in the
// past (an open-loop request starts when it was due, not when it was
// sent).
func (t *Tracer) StartAt(name string, parent spanRef, trace int64, at time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	var pid int64
	if parent.t == t {
		pid = t.spans[parent.idx].ID
		if trace == 0 {
			trace = t.spans[parent.idx].Trace
		}
	}
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, Span{ID: id, Parent: pid, Trace: trace, Name: name, Start: at.Sub(t.t0), End: -1})
	return spanRef{t: t, idx: len(t.spans) - 1}
}

// id is the span's ID, 0 for an inert span.
func (s spanRef) id() int64 {
	if s.t == nil {
		return 0
	}
	return int64(s.idx + 1)
}

// End closes the span now.
func (s spanRef) End() { s.EndAt(time.Now()) }

// EndAt closes the span at the given time.
func (s spanRef) EndAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.idx].End = at.Sub(s.t.t0)
	s.t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTime is one span name's aggregate: how many spans, their total
// duration, and their self time — duration minus the part of each span's
// interval that its child spans cover.
type SelfTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes aggregates spans by name. Children that run concurrently (two
// ranks, overlapping requests) are merged as intervals, so a parent's
// covered time never exceeds its own duration.
func selfTimes(spans []Span) []SelfTime {
	type iv struct{ lo, hi time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	agg := map[string]*SelfTime{}
	var order []string
	for _, s := range spans {
		a, ok := agg[s.Name]
		if !ok {
			a = &SelfTime{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, lo, hi := time.Duration(0), s.Start, s.Start
		for _, c := range cs {
			c.lo, c.hi = max(c.lo, s.Start), min(c.hi, s.End)
			if c.hi <= c.lo {
				continue
			}
			if c.lo > hi {
				covered += hi - lo
				lo, hi = c.lo, c.hi
			} else {
				hi = max(hi, c.hi)
			}
		}
		covered += hi - lo
		a.Count++
		a.Total += d
		a.Self += d - covered
	}
	out := make([]SelfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// selfOf returns the aggregate for one span name (zero when absent).
func selfOf(st []SelfTime, name string) SelfTime {
	for _, s := range st {
		if s.Name == name {
			return s
		}
	}
	return SelfTime{Name: name}
}

// writeTrace writes the spans as JSON lines followed by one line per span
// name with its self time.
func writeTrace(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	for _, s := range selfTimes(spans) {
		if err := enc.Encode(map[string]SelfTime{"self": s}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
