package main

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"promonet/internal/promod"
)

// TestTamperedAnswerFails checks that an answer whose values or host
// digest were altered counts as failed and makes the command exit
// non-zero, while the genuine answer passes.
func TestTamperedAnswerFails(t *testing.T) {
	p, err := newPlan(serveTail, 1, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	v := newValidator(p)
	defer v.eng.Close()
	srv, err := promod.New(promod.Config{Source: promod.BASource(p.n, p.k, p.hostSeed)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, o := range []op{promoteOp(5, "degree", 4, false), scoresOp("coreness", []int{1, 2, 3})} {
		r := serveInProcess(context.Background(), h, &o)
		if err := v.checkAnswer(&o, r, true); err != nil {
			t.Fatalf("%s: genuine answer rejected: %v", o.path, err)
		}
		for _, tamper := range []struct{ from, to string }{
			{`"score_before":`, `"score_before":1`},
			{`"score":`, `"score":1`},
			{v.digest, strings.Repeat("0", len(v.digest))},
		} {
			if !strings.Contains(string(r.body), tamper.from) {
				continue
			}
			bad := r
			bad.body = []byte(strings.Replace(string(r.body), tamper.from, tamper.to, 1))
			rep := &report{}
			rep.attempt(bad.ok(), v.checkAnswer(&o, bad, true), "tampered")
			if rep.failed != 1 || rep.correct() || rep.exitCode() == 0 {
				t.Errorf("%s with %q tampered: failed %d, correct %t, exit %d; want 1, false, non-zero",
					o.path, tamper.from, rep.failed, rep.correct(), rep.exitCode())
			}
		}
	}
}

// TestFailedRequestsCountAsSlow checks that a refused or unanswered
// request lowers ok_ratio and counts in the latency percentiles as taking
// at least the drain time, so failing slow requests cannot improve them.
func TestFailedRequestsCountAsSlow(t *testing.T) {
	p, err := newPlan(serveHot, 1, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	v := newValidator(p)
	defer v.eng.Close()
	srv, err := promod.New(promod.Config{Source: promod.BASource(p.n, p.k, p.hostSeed)})
	if err != nil {
		t.Fatal(err)
	}
	w := window{open: []op{p.opAt(0), p.opAt(1), p.opAt(2)}}
	good := serveInProcess(context.Background(), srv.Handler(), &w.open[0])
	good.latency = time.Millisecond
	w.openRes = []result{
		good,
		{op: 1, status: http.StatusTooManyRequests, latency: time.Millisecond},
		{op: 2}, // still pending at the drain deadline
	}
	rep := &report{}
	lat, ok := w.validate(p, v, rep)
	if ok != 1 || rep.failed != 2 || rep.okRatio() != 1.0/3 {
		t.Errorf("ok %d, failed %d, ok_ratio %v; want 1, 2, 1/3", ok, rep.failed, rep.okRatio())
	}
	drain := float64(p.drain) / float64(time.Millisecond)
	if len(lat) != 3 || lat[0] != 1 || lat[1] != drain || lat[2] != drain {
		t.Errorf("latencies %v ms, want [1 %v %v]", lat, drain, drain)
	}
}
