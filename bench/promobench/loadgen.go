package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is what the load generator observed for one op. status 0 means
// the request never completed: a transport error, or still pending at
// the drain deadline. Either way it counts as failed.
type result struct {
	op      int           // index of the op answered
	late    time.Duration // open loop: send time minus due time
	latency time.Duration // open loop: from due time; closed loop: from send time
	service time.Duration // send to response
	status  int
	body    []byte
}

func (r result) ok() bool { return r.status == http.StatusOK }

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// openLoop sends ops on their schedule over conns connections and waits
// for the answers. Workers claim ops in due order; a worker that is
// early sleeps until the op is due, and a late one sends at once, so a
// stall in the server delays every op due behind it and each op's
// latency is timed from when it was due, not from when it could be sent.
// Ops not answered drain after the last due time are cancelled and fail.
func openLoop(client *http.Client, base string, ops []op, conns int, drain time.Duration) []result {
	res := make([]result, len(ops))
	if len(ops) == 0 {
		return res
	}
	start := time.Now()
	deadline := start.Add(ops[len(ops)-1].due + drain)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if !sent.Before(deadline) {
					res[i] = result{op: i} // still pending at the drain deadline: failed
					continue
				}
				status, body := send(ctx, client, base, &ops[i])
				done := time.Now()
				res[i] = result{op: i, late: sent.Sub(due), latency: done.Sub(due), service: done.Sub(sent), status: status, body: body}
			}
		}()
	}
	wg.Wait()
	return res
}

// closedLoop keeps conns requests outstanding for d: each worker sends
// its next op as soon as the previous one is answered. The results come
// in no particular order.
func closedLoop(client *http.Client, base string, opAt func(int) op, conns int, d, drain time.Duration) []result {
	stop := time.Now().Add(d)
	ctx, cancel := context.WithDeadline(context.Background(), stop.Add(drain))
	defer cancel()
	var next atomic.Int64
	parts := make([][]result, conns)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				o := opAt(i)
				sent := time.Now()
				status, body := send(ctx, client, base, &o)
				lat := time.Since(sent)
				parts[w] = append(parts[w], result{op: i, latency: lat, service: lat, status: status, body: body})
			}
		}(w)
	}
	wg.Wait()
	var all []result
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// send performs one op and returns the status and body; status 0 on any
// transport error.
func send(ctx context.Context, client *http.Client, base string, o *op) (int, []byte) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, body)
	if err != nil {
		return 0, nil
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted values;
// ok is false when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// tail returns the p-th percentile of sorted values, or their maximum
// when the sample is too small to support it: the maximum bounds the
// percentile from above, so a regression still shows.
func tail(sorted []float64, p float64) float64 {
	if v, ok := percentile(sorted, p); ok {
		return v
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

// millis returns the sorted durations, in milliseconds, that pick
// selects from the results.
func millis(rs []result, pick func(result) time.Duration) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(pick(r)) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// okOnly returns the results that got a 200 answer.
func okOnly(rs []result) []result {
	var out []result
	for _, r := range rs {
		if r.ok() {
			out = append(out, r)
		}
	}
	return out
}
