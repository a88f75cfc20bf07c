package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// stallServer answers at once, except that every request arriving in
// [from, to) after t0 is held until to.
func stallServer(t0 time.Time, from, to time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if at := time.Since(t0); at >= from && at < to {
			select {
			case <-time.After(to - at):
			case <-r.Context().Done():
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func evenSchedule(every, d time.Duration) []op {
	var ops []op
	for due := time.Duration(0); due < d; due += every {
		ops = append(ops, op{due: due, method: "GET", path: "/"})
	}
	return ops
}

// TestOpenLoopShowsStall checks that a server stall is charged to every
// request due during it: timed from its due time, each must wait at least
// the rest of the stall, whether it was stuck in the server or queued
// behind the busy connections.
func TestOpenLoopShowsStall(t *testing.T) {
	const from, to = 100 * time.Millisecond, 300 * time.Millisecond
	t0 := time.Now()
	srv := stallServer(t0, from, to)
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	ops := evenSchedule(10*time.Millisecond, 500*time.Millisecond)
	res := openLoop(client, srv.URL, ops, 2, time.Second)
	queued := 0
	for i, r := range res {
		if !r.ok() {
			t.Fatalf("op %d failed with status %d", i, r.status)
		}
		due := ops[i].due
		if due < from || due >= to {
			continue
		}
		// t0 precedes the generator's start, so the stall ends at most
		// to - due after each op was due; allow 2 ms of clock skew.
		if want := to - due - 2*time.Millisecond; r.latency < want {
			t.Errorf("op due at %v: latency %v, want at least %v", due, r.latency, want)
		}
		if r.late > 50*time.Millisecond {
			queued++
		}
	}
	if queued == 0 {
		t.Error("no op queued behind the stalled connections reported lateness")
	}
}

// TestOpenLoopFailsPendingRequests checks that requests still unanswered
// at the drain deadline count as failed rather than vanish.
func TestOpenLoopFailsPendingRequests(t *testing.T) {
	t0 := time.Now()
	srv := stallServer(t0, 50*time.Millisecond, 2*time.Second)
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	ops := evenSchedule(10*time.Millisecond, 200*time.Millisecond)
	start := time.Now()
	res := openLoop(client, srv.URL, ops, 2, 200*time.Millisecond)
	if took := time.Since(start); took > time.Second {
		t.Errorf("open loop took %v, want it to give up at the drain deadline", took)
	}
	failed := 0
	for i, r := range res {
		if r.op != i {
			t.Errorf("result %d is for op %d", i, r.op)
		}
		if !r.ok() {
			failed++
		}
	}
	if failed < len(ops)/2 {
		t.Errorf("%d of %d ops failed, want every op due during the stall to fail", failed, len(ops))
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 50, want: 50, ok: true},
		{n: 100, p: 90, want: 90, ok: true},   // exactly 10 beyond
		{n: 100, p: 91, want: 91, ok: false},  // 9 beyond
		{n: 1000, p: 99, want: 990, ok: true}, // nearest rank: ceil(0.99 * 1000)
		{n: 1001, p: 99, want: 991, ok: true},
		{n: 10, p: 50, want: 5, ok: false},
		{n: 1, p: 0, want: 1, ok: false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if got := tail(seq(100), 99); got != 100 {
		t.Errorf("unsupported p99 of 100 samples = %v, want the maximum", got)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestBucketQuantile(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		bounds []float64
		counts []uint64
		q      float64
		want   float64
	}{
		{bounds: []float64{0, 1, 2, 4}, counts: []uint64{0, 10, 0}, q: 0.5, want: 1.5}, // halfway through (1, 2]
		{bounds: []float64{0, 1, 2, 4}, counts: []uint64{5, 0, 5}, q: 0.9, want: 3.6},  // 4 of 5 into (2, 4]
		{bounds: []float64{0, 1, inf}, counts: []uint64{1, 4}, q: 0.99, want: 1},       // unbounded: its finite edge
		{bounds: []float64{-inf, 1, 2}, counts: []uint64{3, 0}, q: 0.5, want: 1},       // unbounded below
		{bounds: []float64{0, 1, 2}, counts: []uint64{0, 0}, q: 0.5, want: 0},          // empty
	} {
		if got := bucketQuantile(c.bounds, c.counts, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("bucketQuantile(%v, %v, %v) = %v, want %v", c.bounds, c.counts, c.q, got, c.want)
		}
	}
}
