// Package engine is the shared execution layer for centrality scoring —
// the hot path of both the paper's evaluation (Section VII recomputes
// four exact measures per strategy, size, and target) and the greedy
// baselines, whose candidate evaluation re-scores near-identical graphs
// hundreds of times per round.
//
// A CentralityEngine owns
//
//   - a persistent worker pool (goroutines live for the engine's
//     lifetime instead of being respawned per measure call),
//   - sync.Pool-backed BFS/Brandes scratch kernels
//     (centrality.Kernel), so repeated scoring allocates no traversal
//     state, and
//   - a memo table keyed by graph content, invalidated through the
//     version counter on graph.Graph: every mutation bumps the version,
//     so a stale snapshot can never be served, while re-scoring an
//     unchanged (or structurally restored, or cloned) graph is a cache
//     hit.
//
// Score families are shared: closeness, farness, harmonic, and both
// eccentricity variants all derive from one all-pairs BFS sweep, and
// both betweenness counting conventions derive from one Brandes
// accumulation — requesting any subset costs one computation.
//
// Determinism: per-source work is distributed on a fixed strided
// schedule and partial sums are merged in worker order, so identical
// (graph, measure, worker count) inputs produce bitwise-identical
// scores, across engine instances. This is a stronger contract than the
// direct centrality functions, whose racing batch scheduler may regroup
// floating-point sums between runs.
package engine

import (
	"container/list"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"promonet/internal/centrality"
	"promonet/internal/graph"
	"promonet/internal/obs"
)

// Engine is a pooled, memoizing centrality scorer. Create one with New
// (or use the process-wide Default). All methods are safe for
// concurrent use; Close is the only exception and must not race with
// in-flight scoring.
type Engine struct {
	workers  int
	cacheCap int
	hashCap  int

	registry  *obs.Registry
	regPrefix string

	jobs    chan func()
	kernels sync.Pool

	mu      sync.Mutex
	entries map[contentKey]*entry
	lru     *list.List // contentKey values, front = most recent
	hashes  map[uint64]contentKey
	closed  bool

	counters counters
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithCacheSize bounds the memo table to n graph snapshots (LRU
// eviction). n = 0 disables memoization entirely — every request is
// computed, but still through the pooled kernels and persistent
// workers. The default is 256 snapshots.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// WithRegistry backs the engine's hit/miss/eviction and traversal
// counters by reg under "<prefix>.<name>" metric names, so they appear
// in /debug/vars (and any other consumer of the registry) without
// changing the Stats API. Without this option the counters are private
// to the engine. The Default engine registers into obs.Default() under
// the "engine" prefix.
func WithRegistry(reg *obs.Registry, prefix string) Option {
	return func(e *Engine) { e.registry, e.regPrefix = reg, prefix }
}

// New returns an engine with the given number of pool workers
// (workers <= 0 means GOMAXPROCS). The goroutines are spawned up front
// and live until Close; a single-worker engine runs everything inline
// and spawns none.
func New(workers int, opts ...Option) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, cacheCap: 256}
	for _, o := range opts {
		o(e)
	}
	e.counters = newCounters(e.registry, e.regPrefix)
	e.hashCap = 4*e.cacheCap + 16
	e.entries = make(map[contentKey]*entry)
	e.lru = list.New()
	e.hashes = make(map[uint64]contentKey)
	if e.workers > 1 {
		e.jobs = make(chan func())
		for i := 0; i < e.workers; i++ {
			go func() {
				for f := range e.jobs {
					f()
				}
			}()
		}
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine (GOMAXPROCS workers,
// default cache size), creating it on first use. It is never closed;
// the measure implementations in internal/core and the baselines in
// internal/greedy score through it.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0, WithRegistry(obs.Default(), "engine")) })
	return defaultEngine
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Close stops the worker pool. Scoring through a closed multi-worker
// engine panics; Close is idempotent. The Default engine is never
// closed.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.jobs != nil {
		close(e.jobs)
	}
}

// --- Content addressing ---

// contentKey identifies a graph snapshot by structure: node and edge
// counts plus two independent 64-bit digests of the sorted adjacency.
// Collisions require simultaneous agreement of n, m, and both digests.
type contentKey struct {
	n, m   int
	h1, h2 uint64
}

// hashGraph digests g's adjacency structure. O(n + m).
func hashGraph(g graph.View) contentKey {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
		mixMult   = 0x9E3779B97F4A7C15
		mixAdd    = 0x517cc1b727220a95
	)
	h1, h2 := uint64(fnvOffset), uint64(88172645463325252)
	n := g.N()
	for v := 0; v < n; v++ {
		row := g.Adjacency(v)
		h1 = (h1 ^ uint64(len(row)+1)) * fnvPrime
		h2 = h2*mixMult + uint64(len(row)+1)
		for _, u := range row {
			h1 = (h1 ^ uint64(u)) * fnvPrime
			h2 = h2*mixMult + uint64(u) + mixAdd
		}
	}
	return contentKey{n: n, m: g.M(), h1: h1, h2: h2}
}

// contentKeyOf returns g's snapshot key, memoizing the digest per graph
// version so unchanged graphs are hashed once. Version 0 (a zero-value
// graph that was never mutated) is not memoized — two distinct graphs
// may share it.
func (e *Engine) contentKeyOf(g graph.View) contentKey {
	v := g.Version()
	if v != 0 {
		e.mu.Lock()
		ck, ok := e.hashes[v]
		e.mu.Unlock()
		if ok {
			return ck
		}
	}
	ck := hashGraph(g)
	if v != 0 {
		e.mu.Lock()
		if len(e.hashes) >= e.hashCap {
			// Rare, cheap, and deterministic: drop the whole digest
			// cache rather than track per-digest recency.
			clear(e.hashes)
		}
		e.hashes[v] = ck
		e.mu.Unlock()
	}
	return ck
}

// --- Memo table ---

// entry holds all memoized results for one graph snapshot.
type entry struct {
	memos map[string]*memo
	el    *list.Element
}

// memo is one (snapshot, key) result slot. The sync.Once gives
// duplicate-suppression: concurrent requests for the same result block
// on one computation instead of racing.
type memo struct {
	once sync.Once
	val  any
}

// memoFor returns the memo slot for (g's content, key), creating it and
// applying LRU eviction as needed. With caching disabled it returns a
// fresh slot, so the caller always computes.
func (e *Engine) memoFor(g graph.View, key string) *memo {
	if e.cacheCap <= 0 {
		return &memo{}
	}
	ck := e.contentKeyOf(g)
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entries[ck]
	if en == nil {
		en = &entry{memos: make(map[string]*memo), el: e.lru.PushFront(ck)}
		e.entries[ck] = en
		for len(e.entries) > e.cacheCap {
			back := e.lru.Back()
			delete(e.entries, back.Value.(contentKey))
			e.lru.Remove(back)
			e.counters.evictions.Add(1)
		}
	} else {
		e.lru.MoveToFront(en.el)
	}
	mm := en.memos[key]
	if mm == nil {
		mm = &memo{}
		en.memos[key] = mm
	}
	return mm
}

// resolve returns the memoized value for (g, key), computing it at most
// once per snapshot. A cache miss is wrapped in an
// "engine/compute/<family>" tracing span (annotated with the graph
// size) and recorded into the lock-free per-family stats slot; the
// span name is precomputed per family, so with tracing disabled the
// instrumentation costs one atomic load and zero allocations.
func (e *Engine) resolve(g graph.View, key string, fam family, compute func() any) any {
	mm := e.memoFor(g, key)
	ran := false
	mm.once.Do(func() {
		ran = true
		_, sp := obs.Start(context.Background(), familySpanNames[fam])
		sp.Int("n", g.N())
		sp.Int("m", g.M())
		sp.Str("key", key)
		t0 := time.Now()
		mm.val = compute()
		e.counters.noteCompute(fam, time.Since(t0))
		sp.End()
	})
	if !ran {
		e.counters.hits.Add(1)
	}
	return mm.val
}

// --- Worker pool ---

// forWorkers runs fn(0..w-1) on the pool and waits for all of them; a
// single span runs inline on the calling goroutine.
func (e *Engine) forWorkers(w int, fn func(worker int)) {
	if w <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		i := i
		e.jobs <- func() {
			defer wg.Done()
			fn(i)
		}
	}
	wg.Wait()
}

// span picks the parallel width for `sources` units of ~`unit` work
// each: never more than the pool, never more than the sources, and wide
// only when there is enough work to amortize the handoff — tiny graphs
// run inline, where the pooled kernel makes the sequential path fast.
func (e *Engine) span(sources, unit int) int {
	w := e.workers
	if w > sources {
		w = sources
	}
	if w <= 1 {
		return 1
	}
	const minWorkPerWorker = 1 << 15
	if maxW := sources*unit/minWorkPerWorker + 1; w > maxW {
		w = maxW
	}
	return w
}

// getKernel takes a scratch kernel from the pool.
func (e *Engine) getKernel() *centrality.Kernel {
	if k, ok := e.kernels.Get().(*centrality.Kernel); ok {
		return k
	}
	return centrality.NewKernel()
}

// putKernel returns a kernel to the pool.
func (e *Engine) putKernel(k *centrality.Kernel) { e.kernels.Put(k) }

// --- Compute families ---

// sweepResult is the shared product of one all-pairs BFS sweep.
type sweepResult struct {
	far  []int64   // Σ_u dist(v, u), unreachable pairs contribute 0
	harm []float64 // Σ_{u≠v} 1/dist(v, u)
	ecc  []int32   // max_u dist(v, u) within v's component
}

// sweep returns (computing at most once per snapshot) the distance
// family for g.
func (e *Engine) sweep(g graph.View) *sweepResult {
	return e.resolve(g, "distance-sweep", famSweep, func() any {
		return e.computeSweep(g)
	}).(*sweepResult)
}

func (e *Engine) computeSweep(g graph.View) *sweepResult {
	n := g.N()
	sw := &sweepResult{far: make([]int64, n), harm: make([]float64, n), ecc: make([]int32, n)}
	if n == 0 {
		return sw
	}
	w := e.span(n, n+g.M())
	e.forWorkers(w, func(worker int) {
		k := e.getKernel()
		defer e.putKernel(k)
		runs := uint64(0)
		//promolint:hotpath
		for s := worker; s < n; s += w {
			dist, _, eccS := k.BFS(g, s)
			var far int64
			var h float64
			for _, d := range dist {
				if d > 0 {
					far += int64(d)
					h += 1 / float64(d)
				}
			}
			sw.far[s], sw.harm[s], sw.ecc[s] = far, h, eccS
			runs++
		}
		e.counters.bfsRuns.Add(runs)
	})
	return sw
}

// rawBetweenness returns the cached ordered-pairs dependency sums over
// the measure's source set, plus the pivot scale (n/k for sampled, 1
// for exact) still to be applied. The returned slice is cache-owned.
func (e *Engine) rawBetweenness(g graph.View, m Measure) ([]float64, float64) {
	n := g.N()
	sample := m.sample
	if sample >= n {
		sample = 0 // exact fallback, mirroring centrality.BetweennessSampled
	}
	key := "bc-raw"
	scale := 1.0
	if sample > 0 {
		key = Measure{kind: kindBetweenness, sample: sample, seed: m.seed}.Key()
		scale = float64(n) / float64(sample)
	}
	raw := e.resolve(g, key, famBetweenness, func() any {
		var sources []int
		if sample > 0 {
			// One Perm draw from a fresh seeded rng: the documented rng
			// contract of centrality.BetweennessSampled.
			sources = rand.New(rand.NewSource(m.seed)).Perm(n)[:sample]
		} else {
			sources = make([]int, n)
			for i := range sources {
				sources[i] = i
			}
		}
		return e.brandesAccumulate(g, sources)
	}).([]float64)
	return raw, scale
}

// brandesAccumulate sums ordered-pair dependencies over the given
// sources, parallelized on a deterministic strided schedule: worker w
// takes sources w, w+span, w+2·span, ... and partials merge in worker
// order, so the floating-point result depends only on (graph, sources,
// span) — not on goroutine scheduling.
func (e *Engine) brandesAccumulate(g graph.View, sources []int) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n == 0 || len(sources) == 0 {
		return out
	}
	w := e.span(len(sources), n+g.M())
	kernels := make([]*centrality.Kernel, w)
	accs := make([][]float64, w)
	e.forWorkers(w, func(worker int) {
		k := e.getKernel()
		kernels[worker] = k
		acc := k.Acc(n)
		accs[worker] = acc
		runs := uint64(0)
		//promolint:hotpath
		for i := worker; i < len(sources); i += w {
			k.Brandes(g, sources[i], acc)
			runs++
		}
		e.counters.brandes.Add(runs)
	})
	for _, acc := range accs {
		for v := range out {
			out[v] += acc[v]
		}
	}
	for _, k := range kernels {
		e.putKernel(k)
	}
	return out
}

// --- Public scoring API ---

// Scores returns C(v) for every node of g under measure m, as a freshly
// allocated slice the caller owns. Results are memoized per graph
// snapshot; see the package comment for the invalidation contract.
func (e *Engine) Scores(g graph.View, m Measure) []float64 {
	n := g.N()
	out := make([]float64, n)
	switch m.kind {
	case kindBetweenness:
		raw, scale := e.rawBetweenness(g, m)
		if m.counting == centrality.PairsUnordered {
			scale /= 2
		}
		for v, x := range raw {
			out[v] = x * scale
		}
	case kindCloseness:
		for v, f := range e.sweep(g).far {
			if f > 0 {
				out[v] = 1 / float64(f)
			}
		}
	case kindFarness:
		for v, f := range e.sweep(g).far {
			out[v] = float64(f)
		}
	case kindEccentricity:
		for v, x := range e.sweep(g).ecc {
			if x > 0 {
				out[v] = 1 / float64(x)
			}
		}
	case kindReciprocalEccentricity:
		for v, x := range e.sweep(g).ecc {
			out[v] = float64(x)
		}
	case kindHarmonic:
		copy(out, e.sweep(g).harm)
	case kindCoreness:
		cached := e.resolve(g, "coreness", famCoreness, func() any {
			return centrality.CorenessFloat(g)
		}).([]float64)
		copy(out, cached)
	case kindDegree:
		cached := e.resolve(g, "degree", famDegree, func() any {
			return centrality.Degree(g)
		}).([]float64)
		copy(out, cached)
	case kindKatz:
		cached := e.resolve(g, "katz", famKatz, func() any {
			return centrality.KatzAuto(g)
		}).([]float64)
		copy(out, cached)
	}
	return out
}

// ScoresFor scores g under every measure in one batch. Measures from
// the same compute family (e.g. closeness and eccentricity) share a
// single underlying computation.
func (e *Engine) ScoresFor(g graph.View, measures ...Measure) [][]float64 {
	out := make([][]float64, len(measures))
	for i, m := range measures {
		out[i] = e.Scores(g, m)
	}
	return out
}

// RanksFor returns the competition ranking (Section III) of every node
// under each measure. Rankings are memoized alongside the scores.
func (e *Engine) RanksFor(g graph.View, measures ...Measure) [][]int {
	out := make([][]int, len(measures))
	for i, m := range measures {
		cached := e.resolve(g, "ranks|"+m.Key(), famRanks, func() any {
			return centrality.Ranks(e.Scores(g, m))
		}).([]int)
		out[i] = append([]int(nil), cached...)
	}
	return out
}

// FarnessInt64 returns the exact integer farness vector Σ_u dist(v, u)
// — the bookkeeping unit of the greedy closeness baseline — from the
// shared distance sweep.
func (e *Engine) FarnessInt64(g graph.View) []int64 {
	return append([]int64(nil), e.sweep(g).far...)
}

// CorenessInt returns the integer core numbers (the unit the greedy
// coreness baseline compares in), sharing the memo slot of the float
// coreness measure. Core numbers are exact small integers, so the
// float64 round trip is lossless.
func (e *Engine) CorenessInt(g graph.View) []int {
	cached := e.resolve(g, "coreness", famCoreness, func() any {
		return centrality.CorenessFloat(g)
	}).([]float64)
	out := make([]int, len(cached))
	for v, x := range cached {
		out[v] = int(x)
	}
	return out
}

// AverageClustering returns the mean local clustering coefficient,
// memoizing the per-node vector (the detectability report evaluates it
// on both snapshots of every comparison).
func (e *Engine) AverageClustering(g graph.View) float64 {
	cl := e.resolve(g, "clustering", famClustering, func() any {
		return centrality.LocalClustering(g)
	}).([]float64)
	if len(cl) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cl {
		sum += c
	}
	return sum / float64(len(cl))
}
