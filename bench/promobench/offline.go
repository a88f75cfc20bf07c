package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"time"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/greedy"
)

// An offline-paper job promotes its target with p = jobSize and runs one
// greedy round over jobSample candidates: budget 2 over 64 candidates
// took seconds per job, too few jobs for a run.
const jobSize, jobSample = 8, 8

// jobOutcome is what one offline-paper job produced, in a form two runs
// of the same job can be compared with.
type jobOutcome struct {
	target     int
	rankBefore [4]int
	rankAfter  [4]int
	scoreAfter [4]uint64 // float bits of the target's score on G′
	edges      [][2]int  // greedy's chosen edges
	greedyBits uint64    // float bits of greedy's final target score
}

// runJob runs offline-paper job i on g: the guided strategy for each of
// the four measures at the plan's size, then one greedy betweenness round
// over a seeded candidate sample.
func runJob(p plan, g *graph.Graph, i int) (jobOutcome, error) {
	t := p.distinctTarget(i)
	out := jobOutcome{target: t}
	for j, name := range paperMeasures {
		m, err := core.MeasureByName(name)
		if err != nil {
			return out, err
		}
		_, o, err := core.PromoteWith(g, m, core.Strategy{Target: t, Size: jobSize, Type: m.Strategy()})
		if err != nil {
			return out, err
		}
		out.rankBefore[j], out.rankAfter[j] = o.RankBefore, o.RankAfter
		out.scoreAfter[j] = math.Float64bits(o.After[t])
	}
	_, res, err := greedy.Improve(g, t, 1, greedy.Options{
		Counting:        centrality.PairsUnordered,
		CandidateSample: jobSample,
		Rand:            rand.New(rand.NewSource(p.jobSeed(i))),
	})
	if err != nil {
		return out, err
	}
	out.edges = res.Edges
	out.greedyBits = math.Float64bits(res.ScorePerRound[len(res.ScorePerRound)-1])
	return out, nil
}

// checkJob recomputes a job's outcome on a fresh engine, which shares no
// cache with the engine.Default() the job scored through.
func checkJob(p plan, g *graph.Graph, o jobOutcome) error {
	eng := engine.New(0)
	defer eng.Close()
	for j, name := range paperMeasures {
		m, err := core.MeasureByName(name)
		if err != nil {
			return err
		}
		g2, _, err := (core.Strategy{Target: o.target, Size: jobSize, Type: m.Strategy()}).Apply(g)
		if err != nil {
			return err
		}
		after := eng.Scores(g2, engineMeasure(name))
		if rank := centrality.RankOf(after, o.target); rank != o.rankAfter[j] || math.Float64bits(after[o.target]) != o.scoreAfter[j] {
			return fmt.Errorf("%s promotion of %d: rank %d score %v, fresh engine rank %d score %v",
				name, o.target, o.rankAfter[j], math.Float64frombits(o.scoreAfter[j]), rank, after[o.target])
		}
	}
	if len(o.edges) != 1 {
		return fmt.Errorf("greedy chose %d edges, want 1", len(o.edges))
	}
	g2 := g.Clone()
	g2.AddEdge(o.edges[0][0], o.edges[0][1])
	if s := eng.Scores(g2, engineMeasure("betweenness"))[o.target]; math.Float64bits(s) != o.greedyBits {
		return fmt.Errorf("greedy score of %d is %v, fresh engine %v", o.target, math.Float64frombits(o.greedyBits), s)
	}
	return nil
}

// runOffline runs offline-paper: a closed loop with one caller, job after
// job, for the plan's run length.
func runOffline(p plan) (*report, error) {
	// Each set-up builds a host and runs job 0 on it. All but the last use
	// other seeds, so every set-up pays for its own cold engine cache;
	// the last builds the measured host and leaves its base scores warm,
	// as a long-running pipeline would have them.
	var setupTimes []float64
	var g *graph.Graph
	var first jobOutcome
	for s := 0; s < setups; s++ {
		start := time.Now()
		g = p.hostWithSeed(p.hostSeed + int64(setups-1-s))
		o, err := runJob(p, g, 0)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		first = o
	}

	rep := &report{}
	var lat []float64
	ok := 0
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	rssS := sampleRSS(os.Getpid())
	start := time.Now()
	// The loop is closed, so jobs per second of wall time is the
	// pipeline's throughput. No job starts after the window ends.
	stop := start.Add(p.window)
	for i := 1; time.Now().Before(stop); i++ {
		t0 := time.Now()
		o, err := runJob(p, g, i)
		took := time.Since(t0)
		delivered := err == nil
		if delivered && (len(o.edges) != 1 || o.rankAfter[0] < 1) {
			err = errors.New("malformed outcome")
		}
		rep.attempt(delivered, err, fmt.Sprintf("job %d", i))
		if err == nil {
			ok++
		} else {
			took = max(took, p.drain) // as a failed request counts on the serving workloads
		}
		lat = append(lat, float64(took)/float64(time.Millisecond))
	}
	elapsed := time.Since(start)
	rss, err := rssS.median()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}

	again, err := runJob(p, g, 0)
	if err == nil && !reflect.DeepEqual(again, first) {
		err = fmt.Errorf("job 0 gave %+v, then %+v", first, again)
	}
	if err == nil {
		err = checkJob(p, g, first)
	}
	rep.attempt(true, err, "job 0 run twice")

	sort.Float64s(lat)
	rep.metric("setup_s", median(setupTimes), "s")
	rep.metric("p50_ms", tail(lat, 50), "ms")
	rep.metric("tail_ms", tail(lat, p.tailPct), "ms")
	rep.metric("throughput_per_s", float64(ok)/elapsed.Seconds(), "1/s")
	rep.metric("rss_mb", rss, "MB")
	rep.metric("ok_ratio", rep.okRatio(), "ratio")
	fmt.Fprintf(os.Stderr, "%s: %d jobs in %v, %.2f CPU-s: p50 %.2f ms, p90 %.2f ms; set-ups %.3f s; rss %.1f MB\n",
		p.workload, len(lat), elapsed.Round(time.Millisecond), cpu1-cpu0, tail(lat, 50), tail(lat, 90), setupTimes, rss)
	return rep, nil
}
