package main

import (
	"bytes"
	"fmt"
	"testing"
)

// inputs renders everything a workload run sends or computes on: the
// open-loop schedule, the start of the batch stream and the job list.
func inputs(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	p, err := newPlan(workload, seed, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "host %s\n", p.genSpec())
	if p.serving() {
		for _, o := range p.schedule(firstOpen, p.window) {
			fmt.Fprintf(&b, "%d %s %s %s\n", o.due, o.method, o.path, o.body)
		}
		for i := 0; p.batch && i < 100; i++ {
			o := p.batchOp(i)
			fmt.Fprintf(&b, "%s %s %s\n", o.method, o.path, o.body)
		}
		return b.Bytes()
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "job %d target %d seed %d\n", i, p.distinctTarget(i), p.jobSeed(i))
	}
	return b.Bytes()
}

func TestInputsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, again, other := inputs(t, w, 1), inputs(t, w, 1), inputs(t, w, 2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

func TestScheduleRate(t *testing.T) {
	p, err := newPlan(serveTail, 3, 10, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.schedule(firstOpen, p.window)
	want := p.rate * p.window.Seconds()
	if got := float64(len(ops)); got < 0.95*want || got > 1.05*want {
		t.Errorf("%d ops over %v at %v/s, want about %.0f", len(ops), p.window, p.rate, want)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].due < ops[i-1].due || ops[i].due >= p.window {
			t.Fatalf("op %d due at %v after %v", i, ops[i].due, ops[i-1].due)
		}
	}
}

func TestJobTargetsAreDistinct(t *testing.T) {
	p, err := newPlan(offlinePaper, 5, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < p.n; i++ {
		tg := p.distinctTarget(i)
		if tg < 0 || tg >= p.n || seen[tg] {
			t.Fatalf("job %d target %d repeats or is out of range", i, tg)
		}
		seen[tg] = true
	}
}
