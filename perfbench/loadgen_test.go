package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeServer answers one request at a time in a fixed service time, so its
// capacity is known.
func fakeServer(service time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
}

// TestClosedLoopJobTimeMatchesFakeServerCapacity sends a job closed-loop
// to a server of capacity 200/s: the job takes its request count over the
// capacity, however many workers send it.
func TestClosedLoopJobTimeMatchesFakeServerCapacity(t *testing.T) {
	const service = 5 * time.Millisecond
	srv := fakeServer(service)
	defer srv.Close()
	reqs := make([]plannedReq, 60)
	for i := range reqs {
		reqs[i] = plannedReq{path: "/"}
	}
	samples, wall := closedLoop(context.Background(), newClient(clientConns), srv.URL, reqs, clientConns, nil)
	for i, s := range samples {
		if s.failed() {
			t.Fatalf("request %d failed: %v %d", i, s.err, s.status)
		}
		if s.latency < service {
			t.Errorf("request %d took %v, less than the service time", i, s.latency)
		}
	}
	want := time.Duration(len(reqs)) * service
	if wall < want || wall > 2*want {
		t.Errorf("job took %v, want about %v", wall, want)
	}
}

// TestOpenLoopTimesFromDueTime overloads the fake server: requests queue
// behind each other, and each latency counts its wait from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 5 * time.Millisecond
	srv := fakeServer(service)
	defer srv.Close()
	dues := evenDues(1000, 20) // five times the capacity
	reqs := make([]plannedReq, len(dues))
	for i, d := range dues {
		reqs[i] = plannedReq{due: d, path: "/"}
	}
	samples := openLoop(context.Background(), newClient(clientConns), srv.URL, reqs, nil)
	last := samples[len(samples)-1]
	if last.failed() {
		t.Fatalf("last request failed: %v %d", last.err, last.status)
	}
	// The last request is due at 19 ms and answered no earlier than
	// 20 × 5 ms = 100 ms: about 80 ms late.
	if last.latency < 70*time.Millisecond {
		t.Errorf("last request's latency %v does not count its queueing", last.latency)
	}
}
