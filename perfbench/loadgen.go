package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// plannedReq is one request of an open-loop schedule.
type plannedReq struct {
	due  time.Duration // send time, from the start of the phase
	path string
	body []byte
	// tag lets the caller find what the request asked for when it checks
	// the answer.
	tag int
}

// sample is one request's outcome. Latency runs from the request's due
// time, not its send time, so a stall delays every request behind it in
// the measurement as it does for users.
type sample struct {
	latency time.Duration // due → response body fully read, or failure
	late    time.Duration // due → handed to the HTTP client
	ttfb    time.Duration // request written → first response byte (traced)
	status  int
	err     error
	body    []byte
}

// failed reports a transport error or a non-200 answer.
func (s sample) failed() bool { return s.err != nil || s.status != http.StatusOK }

// requestTimeout bounds one request; a request that hits it has failed.
const requestTimeout = 10 * time.Second

// newClient returns an HTTP client that keeps at most conns connections
// to the server; requests beyond that wait for a free connection, and the
// wait counts in their latency.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// evenDues returns n send times spaced evenly at the given rate. Arrival
// bursts would make the tail latency depend on the seed's particular
// bursts more than on the server; even spacing keeps the schedule open
// (nothing waits for an answer) while measuring the server.
func evenDues(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends every request at its due time, whether or not earlier
// ones have been answered, and waits for all of them. One goroutine keeps
// the schedule; each request runs on its own goroutine. Once ctx is
// canceled no further request is sent, and the unsent ones fail with the
// context's error. With a tracer, each request records a root span from
// its due time with children for the generator's lateness, the wait for a
// connection, the server's time to first byte and the body read.
func openLoop(ctx context.Context, client *http.Client, base string, reqs []plannedReq, tr *Tracer) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, rq := range reqs {
		due := t0.Add(rq.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if err := ctx.Err(); err != nil {
			out[i] = sample{err: err, latency: time.Since(due)}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = doRequest(ctx, client, base, rq, due, tr)
		}()
	}
	wg.Wait()
	return out
}

func doRequest(ctx context.Context, client *http.Client, base string, rq plannedReq, due time.Time, tr *Tracer) sample {
	var s sample
	dispatched := time.Now()
	s.late = dispatched.Sub(due)
	root := tr.StartAt("http.request", spanRef{}, 0, due)
	tr.StartAt("gen.late", root, 0, due).EndAt(dispatched)
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	// The client calls these hooks from its own goroutines.
	var gotConn, wrote, firstByte atomic.Int64 // ns since due
	if tr != nil {
		stamp := func(v *atomic.Int64) { v.Store(int64(time.Since(due))) }
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { stamp(&gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&wrote) },
			GotFirstResponseByte: func() { stamp(&firstByte) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		s.err = err
		s.latency = time.Since(due)
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	s.err = err
	s.latency = done.Sub(due)
	c, w, f := gotConn.Load(), wrote.Load(), firstByte.Load()
	if tr != nil && c > 0 && w > 0 && f > 0 {
		at := func(ns int64) time.Time { return due.Add(time.Duration(ns)) }
		s.ttfb = time.Duration(f - w)
		tr.StartAt("http.conn_wait", root, 0, dispatched).EndAt(at(c))
		tr.StartAt("http.server", root, 0, at(w)).EndAt(at(f))
		tr.StartAt("http.body", root, 0, at(f)).EndAt(done)
	}
	root.EndAt(done)
	return s
}

// closedLoop sends reqs from workers goroutines, each sending its next
// request only when its previous one has been answered, and returns every
// request's sample, timed from its send, and the time until the last
// answer arrived.
func closedLoop(ctx context.Context, client *http.Client, base string, reqs []plannedReq, workers int, tr *Tracer) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = doRequest(ctx, client, base, reqs[i], time.Now(), tr)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
