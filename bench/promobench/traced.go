package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/greedy"
	"promonet/internal/obs"
	"promonet/internal/promod"
)

// The traced run times, in process, the calls a workload makes into
// each module's public functions. Every call runs under an obs span
// named bench/<layer>/<call>; spans of one request or job share a root,
// and the program's own spans nest under them where its API takes a
// context. Probes run a fixed number of times, so the engine counters
// they report repeat exactly.

// probe collects the samples of the per-layer metrics.
type probe struct {
	samples map[string][]float64
	units   map[string]string
}

func newProbe() *probe {
	return &probe{samples: map[string][]float64{}, units: map[string]string{}}
}

// add records one sample of a metric.
func (pr *probe) add(name, unit string, v float64) {
	pr.units[name] = unit
	pr.samples[name] = append(pr.samples[name], v)
}

// time runs fn under a span named spanName and records its wall time in
// metric name, scaled to unit (s, ms, us or ns).
func (pr *probe) time(ctx context.Context, spanName, name, unit string, fn func(context.Context)) {
	ctx, sp := obs.Start(ctx, spanName)
	start := time.Now()
	fn(ctx)
	d := time.Since(start)
	sp.End()
	pr.add(name, unit, scale(d, unit))
}

func scale(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d) / float64(time.Millisecond)
	case "us":
		return float64(d) / float64(time.Microsecond)
	default:
		return float64(d)
	}
}

// reps is how many times a host-sized probe (generation, freeze, a cold
// score) repeats: few on the 10⁵-node hosts, more on the small ones.
func reps(n int) int {
	if n >= 100_000 {
		return 3
	}
	return 10
}

// bigHost is the host size above which the traced run takes the paper
// pipeline's O(n·m) probes to the offline-paper host: a 2·10⁵-node host
// admits no full betweenness or distance sweep in a run.
const bigHost = 1000

// runTraced is the traced per-layer run of one workload. It writes the
// trace to dir and prints a per-span table on stderr.
func runTraced(p plan, root, dir string) (*report, error) {
	rec := obs.NewRecorder(1 << 17)
	rec.EnablePhaseDeltas(true) // as cmd/promod always runs
	obs.SetRecorder(rec)
	defer obs.SetRecorder(nil)

	pp := p
	if p.n > bigHost {
		var err error
		if pp, err = newPlan(offlinePaper, p.seed, 1, p.conns, p.toy); err != nil {
			return nil, err
		}
	}
	v := newValidator(p)
	defer v.eng.Close()
	printEnv(p, root, v.snap.N(), v.snap.M())

	rep := &report{}
	pr := newProbe()
	ctx := context.Background()
	snap := probeHost(ctx, pr, p)
	probeKernels(ctx, pr, snap, p)
	paperHost := pp.host()
	small := csr.Freeze(paperHost)
	probeEngine(ctx, pr, snap, small)
	if err := probePaper(ctx, pr, pp, paperHost, small); err != nil {
		return nil, err
	}
	if err := probeService(ctx, pr, rep, p, v); err != nil {
		return nil, err
	}
	obs.SetRecorder(nil)
	probeObs(pr, snap)

	for name, s := range pr.samples {
		sort.Float64s(s)
		unit := pr.units[name]
		if name == "promod.handler_us" {
			rep.metric(name+".p50", tail(s, 50), unit)
			rep.metric(name+".p99", tail(s, 99), unit)
			rep.metric(name+".max", s[len(s)-1], unit)
			continue
		}
		rep.metric(name, median(s), unit)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", p.workload, p.seed))
	if err := obs.WriteTraceFile(path, rec); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spans, err := obs.ValidateTrace(data)
	if err != nil {
		return nil, err
	}
	printLayerTable(rec.Records())
	fmt.Fprintf(os.Stderr, "%s: %d spans traced to %s\n", p.workload, spans, path)
	return rep, nil
}

// probeHost times host generation, freezing and digesting, and returns
// the frozen host.
func probeHost(ctx context.Context, pr *probe, p plan) *csr.Snapshot {
	var g *graph.Graph
	var snap *csr.Snapshot
	for r := 0; r < reps(p.n); r++ {
		pr.time(ctx, "bench/gen/ba", "gen.ba_s", "s", func(context.Context) { g = p.host() })
		pr.time(ctx, "bench/csr/freeze", "csr.freeze_ms", "ms", func(context.Context) { snap = csr.Freeze(g) })
		pr.time(ctx, "bench/csr/digest", "csr.digest_ms", "ms", func(context.Context) { snap.Digest() })
	}
	return snap
}

// probeKernels times the per-source kernels and the overlay a strategy
// is applied to, on sources and targets drawn from the seed.
func probeKernels(ctx context.Context, pr *probe, snap *csr.Snapshot, p plan) {
	n := snap.N()
	r := rngAt(p.seed, saltJobs, 1)
	sources := 64
	if n >= 100_000 { // a Brandes pass over a 10⁵-node host takes about 0.1 s
		sources = 8
	}
	for i := 0; i < 100; i++ {
		t := r.intn(n)
		pr.time(ctx, "bench/csr/overlay-apply", "csr.overlay_apply_us", "us", func(context.Context) {
			_, _ = (core.Strategy{Target: t, Size: 8, Type: core.MultiPoint}).ApplyTo(csr.NewOverlay(snap))
		})
	}
	k := centrality.NewKernel()
	acc := k.Acc(n)
	k.Brandes(snap, 0, acc) // size the scratch before timing
	for i := 0; i < sources; i++ {
		s, t := r.intn(n), r.intn(n)
		pr.time(ctx, "bench/centrality/bfs", "centrality.bfs_us_per_source", "us", func(context.Context) { k.BFS(snap, s) })
		pr.time(ctx, "bench/centrality/brandes", "centrality.brandes_us_per_source", "us", func(context.Context) { k.Brandes(snap, s, acc) })
		pr.time(ctx, "bench/centrality/brandes-dep", "centrality.brandesdep_us", "us", func(context.Context) { k.BrandesDep(snap, s, t, -1, -1) })
	}
	// Allocation per source, on a fresh kernel as one engine worker
	// would start with it.
	_, sp := obs.Start(ctx, "bench/centrality/brandes-allocs")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh := centrality.NewKernel()
	acc = fresh.Acc(n)
	for i := 0; i < sources; i++ {
		fresh.Brandes(snap, r.intn(n), acc)
	}
	runtime.ReadMemStats(&after)
	sp.End()
	pr.add("centrality.brandes_allocs_per_source", "count", float64(after.Mallocs-before.Mallocs)/float64(sources))
	pr.add("centrality.brandes_bytes_per_source", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(sources))
}

// linearMeasures are the measures cheap enough to score cold on any
// host; the rest need an O(n·m) sweep.
var linearMeasures = map[string]bool{"coreness": true, "degree": true, "katz": true}

// probeEngine times cold scoring of every served measure, on a fresh
// engine each time, and memoized scoring of the measures the serving
// set-up computes. Sweep measures are scored on small when the
// workload's host is too big for them.
func probeEngine(ctx context.Context, pr *probe, snap, small *csr.Snapshot) {
	for _, m := range allMeasures {
		host := snap
		if !linearMeasures[m] && snap.N() > bigHost {
			host = small
		}
		for r := 0; r < reps(host.N()); r++ {
			e := engine.New(0)
			pr.time(ctx, "bench/engine/scores", "engine.scores_ms."+m, "ms", func(context.Context) { e.Scores(host, engineMeasure(m)) })
			if m == "degree" || m == "coreness" {
				for i := 0; i < 10; i++ {
					pr.time(ctx, "bench/engine/scores-hit", "engine.scores_hit_us", "us", func(context.Context) { e.Scores(host, engineMeasure(m)) })
				}
			}
			e.Close()
		}
	}
}

// probePaper times the paper pipeline on the small host g (frozen as
// snap) of plan pp: exact rescoring on an overlay, the delta scorer
// greedy prices candidates with, and whole offline-paper jobs.
func probePaper(ctx context.Context, pr *probe, pp plan, g *graph.Graph, snap *csr.Snapshot) error {
	e := engine.New(0, engine.WithCacheSize(0))
	defer e.Close()
	for i := 0; i < 10; i++ {
		t := pp.distinctTarget(1000 + i)
		for _, name := range []string{"betweenness", "closeness", "eccentricity"} {
			m, err := core.MeasureByName(name)
			if err != nil {
				return err
			}
			ov := csr.NewOverlay(snap)
			if _, err := (core.Strategy{Target: t, Size: 8, Type: m.Strategy()}).ApplyTo(ov); err != nil {
				return err
			}
			pr.time(ctx, "bench/engine/exact-scores", "engine.exact_scores_ms."+name, "ms", func(context.Context) { e.Scores(ov, engineMeasure(name)) })
		}
	}
	for i := 0; i < 5; i++ {
		t := pp.distinctTarget(2000 + i)
		var cands []int
		for v := 0; v < snap.N() && len(cands) < jobSample; v += 1 + snap.N()/jobSample {
			if v != t && !snap.HasEdge(t, v) {
				cands = append(cands, v)
			}
		}
		pr.time(ctx, "bench/engine/delta-batch", "engine.delta_batch_ms", "ms", func(context.Context) {
			e.EvaluateEdgeBatch(snap, t, cands, engineMeasure("betweenness"))
		})
	}

	if _, err := runJob(pp, g, 0); err != nil { // warm the base scores, as a running pipeline has them
		return err
	}
	before := engine.Default().Stats()
	for i := 1; i <= 5; i++ {
		jctx, job := obs.Start(ctx, "bench/offline/job")
		t := pp.distinctTarget(i)
		for _, name := range paperMeasures {
			m, err := core.MeasureByName(name)
			if err != nil {
				job.End()
				return err
			}
			short := strings.ToLower(m.Short())
			pr.time(jctx, "bench/core/promote-"+short, "core.promote_ms."+short, "ms", func(context.Context) {
				_, _, err = core.PromoteWith(g, m, core.Strategy{Target: t, Size: jobSize, Type: m.Strategy()})
			})
			if err != nil {
				job.End()
				return err
			}
		}
		var err error
		pr.time(jctx, "bench/greedy/improve", "greedy.round_ms", "ms", func(context.Context) {
			_, _, err = greedy.Improve(g, t, 1, greedy.Options{Counting: centrality.PairsUnordered, CandidateSample: jobSample, Rand: rand.New(rand.NewSource(pp.jobSeed(i)))})
		})
		job.End()
		if err != nil {
			return err
		}
	}
	d := engine.Default().Stats().Delta(before)
	pr.add("engine.delta_fallbacks", "count", float64(d.DeltaFallbacks))
	return nil
}

// tracedWindow bounds the traced run's loopback window.
const tracedWindow = 2 * time.Second

// probeService times promod in process: construction; a replay of the
// workload's own request stream through its HTTP handler; a loopback
// window of the workload's load against the same server, as the load
// generator and promod's own histogram see it; and an idle reload.
func probeService(ctx context.Context, pr *probe, rep *report, p plan, v *validator) error {
	src := promod.BASource(p.n, p.k, p.hostSeed)
	if !p.serving() {
		src = promod.Source{Name: p.workload, Load: func() (*graph.Graph, []int64, error) { return p.host(), nil, nil }}
	}
	var srv *promod.Server
	var err error
	for r := 0; r < reps(p.n); r++ {
		pr.time(ctx, "bench/promod/new", "promod.new_s", "s", func(context.Context) { srv, err = promod.New(promod.Config{Source: src}) })
		if err != nil {
			return err
		}
	}
	h := srv.Handler()
	for _, m := range p.measures {
		o := promoteOp(0, m, 4, false)
		if err := v.checkAnswer(&o, serveInProcess(ctx, h, &o), true); err != nil {
			return fmt.Errorf("first in-process %s answer: %w", m, err)
		}
	}

	ops := replayOps(p)
	before := engine.Default().Stats()
	for i := range ops {
		o := &ops[i]
		var r result
		pr.time(ctx, "bench/promod/handler", "promod.handler_us", "us", func(ctx context.Context) { r = serveInProcess(ctx, h, o) })
		pr.add("promod.resp_bytes.p50", "B", float64(len(r.body)))
		rep.attempt(r.ok(), v.check(i, o, r), fmt.Sprintf("replayed op %d (%s)", i, o.path))
	}
	d := engine.Default().Stats().Delta(before)
	pr.add("engine.hits", "count", float64(d.Hits))
	pr.add("engine.misses", "count", float64(d.Misses))
	pr.add("engine.bfs_runs", "count", float64(d.BFSRuns))
	pr.add("engine.brandes_runs", "count", float64(d.BrandesRuns))

	if err := probeLoopback(pr, rep, p, v, srv); err != nil {
		return err
	}
	for r := 0; r < reps(p.n); r++ {
		pr.time(ctx, "bench/promod/reload", "promod.reload_s", "s", func(context.Context) { _, err = srv.Reload() })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeLoopback serves srv on a loopback port and drives the workload's
// load at it for tracedWindow. It reports what the load generator saw,
// promod's latency histogram and counters over the window, and the
// process's runtime, which here holds the generator and the server both.
func probeLoopback(pr *probe, rep *report, p plan, v *validator, srv *promod.Server) error {
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := newClient(p.conns)
	defer client.CloseIdleConnections()

	reg := obs.Default()
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	lat0, req0, shed0, coal0 := reg.Histogram("promod.latency").Snapshot(), count("promod.requests"), count("promod.shed"), count("promod.coalesced")
	rt0 := readRuntime()
	w := runWindow(client, "http://"+srv.Addr(), p, firstTraced, min(p.window, tracedWindow))
	rt1 := readRuntime()
	lat1, requests := reg.Histogram("promod.latency").Snapshot(), count("promod.requests")-req0
	w.validate(p, v, rep)

	okOpen := okOnly(w.openRes)
	late := millis(w.openRes, func(r result) time.Duration { return r.late })
	svc := millis(okOpen, func(r result) time.Duration { return r.service })
	pr.add("loadgen.late_ms.p50", "ms", tail(late, 50))
	pr.add("loadgen.late_ms.p99", "ms", tail(late, 99))
	pr.add("loadgen.service_ms.p50", "ms", tail(svc, 50))

	bounds := make([]float64, len(lat1.Buckets)+1) // µs; bucket i holds (2^(i-1), 2^i]
	counts := make([]uint64, len(lat1.Buckets))
	for i := range counts {
		bounds[i+1] = math.Ldexp(1, i)
		counts[i] = lat1.Buckets[i] - lat0.Buckets[i]
	}
	bounds[len(bounds)-1] = math.Inf(1)
	pr.add("promod.server_latency_us.p50", "us", bucketQuantile(bounds, counts, 0.50))
	pr.add("promod.server_latency_us.p99", "us", bucketQuantile(bounds, counts, 0.99))
	pr.add("promod.requests", "count", requests)
	pr.add("promod.shed", "count", count("promod.shed")-shed0)
	pr.add("promod.coalesced", "count", count("promod.coalesced")-coal0)

	pr.add("runtime.gc_cycles_per_1k_requests", "count", float64(rt1.gcCycles-rt0.gcCycles)*1000/max(1, requests))
	pr.add("runtime.heap_live_bytes", "B", float64(rt1.heapLive))
	pr.add("runtime.gc_pause_p99_ns", "ns", 1e9*histDeltaQuantile(rt0.gcPauses, rt1.gcPauses, 0.99))
	pr.add("runtime.sched_latency_p99_ns", "ns", 1e9*histDeltaQuantile(rt0.schedLat, rt1.schedLat, 0.99))
	return nil
}

// replayOps is the request stream the traced run replays: the head of
// the workload's open-loop stream, with one exact request of
// serve-sweep's batch client after every four, or offline-paper's
// promotions.
func replayOps(p plan) []op {
	n := 4000
	if p.batch || !p.serving() {
		n = 400
	}
	var ops []op
	for i := 0; i < n; i++ {
		ops = append(ops, p.opAt(firstOpen+i))
		if p.batch && i%4 == 3 {
			ops = append(ops, p.batchOp(i/4))
		}
	}
	return ops
}

// serveInProcess answers one op through the daemon's handler, with the
// caller's span in the request context so promod's spans nest under it.
func serveInProcess(ctx context.Context, h http.Handler, o *op) result {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return result{status: w.Code, body: w.Body.Bytes()}
}

// probeObs times the observability layer: building and validating the
// manifest every promod answer embeds, and a root span with the full
// pipeline promod runs (recorder, flight recorder, phase deltas). It
// installs its own recorder, so its spans stay out of the trace.
func probeObs(pr *probe, snap *csr.Snapshot) {
	digest := snap.Digest()
	for i := 0; i < 200; i++ {
		start := time.Now()
		man := obs.NewManifest("promod", 0)
		man.Dataset = &obs.DatasetInfo{Name: "bench", N: snap.N(), M: snap.M(), Digest: digest}
		man.Measure = "degree"
		_, _ = man.Encode()
		pr.add("obs.manifest_encode_us", "us", scale(time.Since(start), "us"))
	}
	rec := obs.NewRecorder(8192)
	rec.AttachFlight(obs.NewFlightRecorder(obs.FlightConfig{}))
	rec.EnablePhaseDeltas(true)
	obs.SetRecorder(rec)
	defer obs.SetRecorder(nil)
	const spans = 1000
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < spans; i++ {
			_, sp := obs.Start(context.Background(), "bench/obs/root")
			sp.End()
		}
		pr.add("obs.root_span_ns", "ns", float64(time.Since(start))/spans)
	}
}

// runtimeSample is the process runtime state the traced run reports.
type runtimeSample struct {
	gcCycles, heapLive uint64
	gcPauses, schedLat *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles: s[0].Value.Uint64(),
		heapLive: s[1].Value.Uint64(),
		gcPauses: s[2].Value.Float64Histogram(),
		schedLat: s[3].Value.Float64Histogram(),
	}
}

// histDeltaQuantile is the q-quantile of the observations a runtime
// histogram gained between two reads.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
	}
	return bucketQuantile(after.Buckets, counts, q)
}

// bucketQuantile returns the q-quantile of a histogram whose bucket i
// holds counts[i] observations in (bounds[i], bounds[i+1]], interpolated
// linearly inside its bucket; in an unbounded bucket it is the finite
// edge. It is 0 for an empty histogram.
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	rank := q * float64(total)
	var below float64
	for i, c := range counts {
		if c == 0 || below+float64(c) < rank {
			below += float64(c)
			continue
		}
		lo, hi := bounds[i], bounds[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (hi-lo)*(rank-below)/float64(c)
	}
	return 0
}

// printLayerTable prints, per span name, the span count, p50 and p99
// duration, and the total self time (duration not covered by child
// spans).
func printLayerTable(recs []*obs.SpanRecord) {
	child := map[uint64]time.Duration{}
	for _, r := range recs {
		if r.ParentID != 0 {
			child[r.ParentID] += r.Duration
		}
	}
	durs := map[string][]float64{}
	self := map[string]time.Duration{}
	for _, r := range recs {
		durs[r.Name] = append(durs[r.Name], float64(r.Duration)/float64(time.Microsecond))
		self[r.Name] += r.Duration - child[r.ID]
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-36s %8s %12s %12s %12s\n", "span", "count", "p50 µs", "p99 µs", "self ms")
	for _, name := range names {
		d := durs[name]
		sort.Float64s(d)
		fmt.Fprintf(os.Stderr, "%-36s %8d %12.1f %12.1f %12.1f\n", name, len(d), tail(d, 50), tail(d, 99), scale(self[name], "ms"))
	}
}
