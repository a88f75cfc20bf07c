package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"
)

// setups is how many times a run sets the system up; set-up time is
// reported as their median.
const setups = 5

// window is what a stretch of a serving workload sent and got back: the
// open loop, and serve-sweep's batch client beside it.
type window struct {
	first    int // op index of open[0]
	open     []op
	openRes  []result
	batchRes []result
}

// runWindow drives the workload's load at base for d: the open loop
// and the batch client, when the plan has one, each from their op first.
func runWindow(client *http.Client, base string, p plan, first int, d time.Duration) window {
	w := window{first: first, open: p.schedule(first, d)}
	if !p.batch {
		w.openRes = openLoop(client, base, w.open, p.conns, p.drain)
		return w
	}
	batch := make(chan []result, 1)
	go func() { batch <- closedLoop(client, base, w.batchOp(p), 1, d, p.drain) }()
	w.openRes = openLoop(client, base, w.open, max(1, p.conns-1), p.drain)
	w.batchRes = <-batch
	return w
}

// batchOp returns the window's batch op i.
func (w window) batchOp(p plan) func(int) op {
	return func(i int) op { return p.batchOp(w.first + i) }
}

// validate checks every answer of the window, recording each in rep. It
// returns the latencies, sorted, in milliseconds, of the workload's
// measured class — the batch client's exact answers on serve-sweep, the
// open loop's otherwise — and how many of them were valid. A failed
// request counts as taking the drain time, or longer if it did, so a
// change that fails its slowest requests cannot lower the percentiles.
func (w window) validate(p plan, v *validator, rep *report) (lat []float64, ok int) {
	var measured []result
	record := func(r result, err error) {
		if err != nil {
			r.latency = max(r.latency, p.drain)
		} else {
			ok++
		}
		measured = append(measured, r)
	}
	for i, r := range w.openRes {
		err := v.check(w.first+i, &w.open[i], r)
		rep.attempt(r.ok(), err, fmt.Sprintf("open-loop op %d (%s)", w.first+i, w.open[i].path))
		if !p.batch {
			record(r, err)
		}
	}
	for _, r := range w.batchRes {
		o := w.batchOp(p)(r.op)
		err := v.check(firstBatch+w.first+r.op, &o, r)
		rep.attempt(r.ok(), err, fmt.Sprintf("batch op %d (%s)", w.first+r.op, o.path))
		record(r, err)
	}
	return millis(measured, func(r result) time.Duration { return r.latency }), ok
}

// runServe runs a serving workload against the promod binary bin.
func runServe(p plan, bin string, v *validator) (*report, error) {
	client := newClient(p.conns)
	defer client.CloseIdleConnections()

	var setupTimes []float64
	var d *daemon
	for s := 0; s < setups; s++ {
		if d != nil {
			d.kill()
		}
		var secs float64
		var err error
		d, secs, err = setupDaemon(p, bin, client, v)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, secs)
	}
	defer d.kill()
	base := "http://" + d.addr

	warm := window{first: firstWarmup, open: p.schedule(firstWarmup, p.warmup)}
	warm.openRes = openLoop(client, base, warm.open, p.conns, p.drain)
	before, err := d.vars()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	// rss_mb is the daemon's median resident set over the window. Its peak
	// (VmHWM) depends on where the collector happens to run: it read
	// 85–102 MB on serve-hot from one seed to the next.
	rssS := sampleRSS(d.cmd.Process.Pid)
	w := runWindow(client, base, p, firstOpen, p.window)
	rss, err := rssS.median()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := d.vars()
	if err != nil {
		return nil, err
	}
	peak, err := statusMB(d.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	var reload result
	if p.reload {
		ctx, cancel := context.WithTimeout(context.Background(), startupTimeout)
		start := time.Now()
		reload.status, reload.body = send(ctx, client, base, &reloadOp)
		reload.latency = time.Since(start)
		cancel()
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	rep := &report{}
	warm.validate(p, v, rep)
	lat, ok := w.validate(p, v, rep)
	if p.reload {
		rep.attempt(reload.ok(), v.checkAnswer(&reloadOp, reload, true), "reload")
	}
	rep.metric("setup_s", median(setupTimes), "s")
	rep.metric("p50_ms", tail(lat, 50), "ms")
	rep.metric("tail_ms", tail(lat, p.tailPct), "ms")
	rep.metric("throughput_per_s", float64(ok)/p.window.Seconds(), "1/s")
	rep.metric("rss_mb", rss, "MB")
	rep.metric("ok_ratio", rep.okRatio(), "ratio")

	okOpen := okOnly(w.openRes)
	openLat := millis(okOpen, func(r result) time.Duration { return r.latency })
	late := millis(w.openRes, func(r result) time.Duration { return r.late })
	svc := millis(okOpen, func(r result) time.Duration { return r.service })
	fmt.Fprintf(os.Stderr, "%s: open loop %d ops at %.0f/s over %v: latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; late p50 %.3f ms, p99 %.3f ms; send to answer p50 %.3f ms\n",
		p.workload, len(w.open), p.rate, p.window, tail(openLat, 50), tail(openLat, 90), tail(openLat, 99), tail(late, 50), tail(late, 99), tail(svc, 50))
	if p.batch {
		fmt.Fprintf(os.Stderr, "%s: batch client %d exact answers: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
			p.workload, len(lat), tail(lat, 50), tail(lat, 90), tail(lat, 99))
	}
	count1, sum1 := hist(after, "promod.latency")
	count0, sum0 := hist(before, "promod.latency")
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	fmt.Fprintf(os.Stderr, "%s: daemon %.0f requests, mean %.1f µs in handler, shed %.0f, coalesced %.0f, %.2f CPU-s; set-ups %.3f s; rss %.1f MB, peak %.1f MB\n",
		p.workload, delta("promod.requests"), (sum1-sum0)/max(1, count1-count0)/1e3, delta("promod.shed"), delta("promod.coalesced"), cpu1-cpu0, setupTimes, rss, peak)
	if p.reload {
		fmt.Fprintf(os.Stderr, "%s: reload answered in %v\n", p.workload, reload.latency.Round(time.Millisecond))
	}
	return rep, nil
}

// setupDaemon starts a daemon and waits for a valid first answer for
// every measure the workload uses, returning the elapsed seconds from
// exec to the last of those answers.
func setupDaemon(p plan, bin string, client *http.Client, v *validator) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(bin, p.genSpec())
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), startupTimeout)
	defer cancel()
	for _, m := range p.measures {
		o := promoteOp(0, m, 4, false)
		status, body := send(ctx, client, "http://"+d.addr, &o)
		if err := v.checkAnswer(&o, result{status: status, body: body}, true); err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("first %s answer: %w", m, err)
		}
	}
	return d, time.Since(start).Seconds(), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}
