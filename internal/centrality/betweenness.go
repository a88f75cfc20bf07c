package centrality

import (
	"math/rand"
	"runtime"
	"sync"

	"promonet/internal/graph"
)

// PairCounting selects how betweenness sums over node pairs.
//
// The paper's Definition 2.3 sums over ordered pairs (s, t) ∈ V², which
// counts every unordered pair twice on an undirected graph; its toy
// examples (Table IV, BC(v1) = 9.5) nevertheless use the conventional
// unordered count. Both are exposed; they differ by exactly a factor of
// two and never change rankings.
type PairCounting int

const (
	// PairsUnordered counts each unordered pair {s, t} once (the
	// convention of Brandes [31] and NetworkX for undirected graphs).
	PairsUnordered PairCounting = iota
	// PairsOrdered counts (s, t) and (t, s) separately, matching the
	// paper's Definition 2.3 and its Table VII/VIII magnitudes.
	PairsOrdered
)

// brandesScratch holds per-source state for Brandes' algorithm [31].
type brandesScratch struct {
	dist  []int32
	sigma []float64 // number of shortest s-v paths
	delta []float64 // dependency of s on v
	order []int32   // BFS queue, then nodes in non-decreasing distance from s
	preds [][]int32 // shortest-path predecessors
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		order: make([]int32, 0, n),
		preds: make([][]int32, n),
	}
}

// source accumulates the dependencies of source s into acc. After
// summing over all sources, acc holds the ordered-pairs betweenness.
//
// The traversal is strictly top-down on every backend — flat-array
// views only swap the row lookup, not the visit order — so the σ and δ
// floating-point accumulation order, and hence the scores, are bitwise
// identical across backends.
//
//promolint:hotpath
func (bs *brandesScratch) source(g graph.View, s int, acc []float64) {
	n := g.N()
	rowptr, cols := graph.ArcsOf(g)
	for i := 0; i < n; i++ {
		bs.dist[i] = Unreachable
		bs.sigma[i] = 0
		bs.delta[i] = 0
		bs.preds[i] = bs.preds[i][:0]
	}
	bs.dist[s] = 0
	bs.sigma[s] = 1
	// order doubles as the BFS queue: nodes are appended when first
	// reached and dequeued by advancing head, so at the end it holds
	// every reached node in non-decreasing distance from s.
	order := append(bs.order[:0], int32(s)) //promolint:allow hotpath-alloc -- amortized: bs.order is preallocated to n and reused across sources
	for head := 0; head < len(order); head++ {
		v := order[head]
		dv := bs.dist[v]
		var row []int32
		if rowptr != nil {
			row = cols[rowptr[v]:rowptr[v+1]]
		} else {
			row = g.Adjacency(int(v))
		}
		for _, u := range row {
			if bs.dist[u] == Unreachable {
				bs.dist[u] = dv + 1
				order = append(order, u) //promolint:allow hotpath-alloc -- amortized: at most n enqueues into the n-cap scratch order
			}
			if bs.dist[u] == dv+1 {
				bs.sigma[u] += bs.sigma[v]
				bs.preds[u] = append(bs.preds[u], v) //promolint:allow hotpath-alloc -- amortized: per-node pred lists reach steady-state capacity and are length-reset, not freed
			}
		}
	}
	// Accumulate dependencies in reverse BFS order.
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		coeff := (1 + bs.delta[w]) / bs.sigma[w]
		for _, v := range bs.preds[w] {
			bs.delta[v] += bs.sigma[v] * coeff
		}
		if int(w) != s {
			acc[w] += bs.delta[w]
		}
	}
	bs.order = order[:0]
}

// sourceDep runs one source iteration from s on g augmented with the
// virtual undirected edge (eu, ev) — an edge considered present without
// mutating g — and returns the dependency δ_s(t) of s on t. Pass
// eu = ev = -1 to run on g as is. Nothing is accumulated into a shared
// vector; the single dependency value is the unit of the engine's
// restricted re-accumulation (internal/engine delta scoring).
//
// The virtual neighbor of eu (resp. ev) is visited after the real
// adjacency row, so the floating-point accumulation order can differ in
// the last ulps from a run on a graph with the edge physically
// inserted; integer-valued state (distances, path counts) is identical.
//
// The forward pass always runs to completion, so bs.dist holds every
// distance from s afterwards; the backward pass runs only as deep as
// δ_s(t) needs, so the rest of bs.delta is partial.
func (bs *brandesScratch) sourceDep(g graph.View, s, t int, eu, ev int32) float64 {
	n := g.N()
	rowptr, cols := graph.ArcsOf(g)
	for i := 0; i < n; i++ {
		bs.dist[i] = Unreachable
		bs.sigma[i] = 0
		bs.delta[i] = 0
		bs.preds[i] = bs.preds[i][:0]
	}
	bs.dist[s] = 0
	bs.sigma[s] = 1
	// order doubles as the BFS queue: nodes are appended when first
	// reached and dequeued by advancing head, so at the end it holds
	// every reached node in non-decreasing distance from s.
	order := append(bs.order[:0], int32(s)) //promolint:allow hotpath-alloc -- amortized: bs.order is preallocated to n and reused across sources
	for head := 0; head < len(order); head++ {
		v := order[head]
		dv := bs.dist[v]
		var row []int32
		if rowptr != nil {
			row = cols[rowptr[v]:rowptr[v+1]]
		} else {
			row = g.Adjacency(int(v))
		}
		for _, u := range row {
			if bs.dist[u] == Unreachable {
				bs.dist[u] = dv + 1
				order = append(order, u) //promolint:allow hotpath-alloc -- amortized: at most n enqueues into the n-cap scratch order
			}
			if bs.dist[u] == dv+1 {
				bs.sigma[u] += bs.sigma[v]
				bs.preds[u] = append(bs.preds[u], v) //promolint:allow hotpath-alloc -- amortized: per-node pred lists reach steady-state capacity and are length-reset, not freed
			}
		}
		extra := int32(-1)
		if v == eu {
			extra = ev
		} else if v == ev {
			extra = eu
		}
		if extra >= 0 {
			if bs.dist[extra] == Unreachable {
				bs.dist[extra] = dv + 1
				order = append(order, extra) //promolint:allow hotpath-alloc -- amortized: at most n enqueues into the n-cap scratch order
			}
			if bs.dist[extra] == dv+1 {
				bs.sigma[extra] += bs.sigma[v]
				bs.preds[extra] = append(bs.preds[extra], v) //promolint:allow hotpath-alloc -- amortized: per-node pred lists reach steady-state capacity and are length-reset, not freed
			}
		}
	}
	bs.order = order[:0]
	// δ_s(t) is a sum over t's successors in the shortest-path DAG, so
	// it is 0 when t is s, unreachable, or has no neighbour one level
	// deeper (the virtual edge counted).
	dt := bs.dist[t]
	if t == s || dt == Unreachable || !bs.hasSuccessor(g, int32(t), eu, ev) {
		return 0
	}
	// Only nodes deeper than t contribute to δ_s(t), and they are
	// visited first and in the same order as in a full backward pass,
	// so stopping at t's level leaves δ_s(t) bitwise unchanged.
	for i := len(order) - 1; i >= 0 && bs.dist[order[i]] > dt; i-- {
		w := order[i]
		coeff := (1 + bs.delta[w]) / bs.sigma[w]
		for _, v := range bs.preds[w] {
			bs.delta[v] += bs.sigma[v] * coeff
		}
	}
	return bs.delta[t]
}

// hasSuccessor reports whether t, after a forward pass, has a
// neighbour one level deeper, counting the virtual edge (eu, ev).
func (bs *brandesScratch) hasSuccessor(g graph.View, t, eu, ev int32) bool {
	next := bs.dist[t] + 1
	for _, u := range g.Adjacency(int(t)) {
		if bs.dist[u] == next {
			return true
		}
	}
	return (t == eu && bs.dist[ev] == next) || (t == ev && bs.dist[eu] == next)
}

// Betweenness returns the betweenness centrality of every node
// (Definition 2.3) using Brandes' algorithm, parallelized over sources.
// The counting convention selects the paper's ordered-pairs definition
// or the conventional unordered count.
func Betweenness(g graph.View, counting PairCounting) []float64 {
	return betweennessFrom(g, allSources(g.N()), counting, 1)
}

// BetweennessWorkers is Betweenness with an explicit worker count
// (1 forces a sequential run). It exists for the parallel-scaling
// ablation benchmarks; Betweenness uses GOMAXPROCS.
func BetweennessWorkers(g graph.View, counting PairCounting, workers int) []float64 {
	return betweennessWorkers(g, allSources(g.N()), counting, 1, workers)
}

// BetweennessSampled estimates betweenness from k pivot sources chosen
// uniformly at random (Brandes–Pich pivoting): dependencies from the
// sampled sources are scaled by n/k, an unbiased estimator of the exact
// score. If k >= n it falls back to the exact computation.
//
// RNG contract: the function consumes exactly one rng.Perm(g.N()) draw
// and nothing else, and the pivot set is its first k elements. Two
// calls with the same graph, k, and an identically seeded rng therefore
// score the same pivot set, regardless of how the per-source work is
// later scheduled. The parallel reduction here groups sources by
// whichever worker happened to claim them, so the floating-point sums
// may differ between runs in the last few ulps; callers needing
// bitwise-reproducible scores should go through internal/engine, whose
// deterministic strided schedule guarantees identical output for
// identical (graph, measure, seed, worker count).
func BetweennessSampled(g graph.View, counting PairCounting, k int, rng *rand.Rand) []float64 {
	n := g.N()
	if k >= n {
		return Betweenness(g, counting)
	}
	pivots := rng.Perm(n)[:k]
	return betweennessFrom(g, pivots, counting, float64(n)/float64(k))
}

func allSources(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func betweennessFrom(g graph.View, sources []int, counting PairCounting, scale float64) []float64 {
	return betweennessWorkers(g, sources, counting, scale, runtime.GOMAXPROCS(0))
}

func betweennessWorkers(g graph.View, sources []int, counting PairCounting, scale float64, workers int) []float64 {
	n := g.N()
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers < 1 {
		workers = 1
	}
	partials := make([][]float64, workers)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			acc := make([]float64, n)
			partials[worker] = acc
			bs := newBrandesScratch(n)
			for {
				mu.Lock()
				lo := next
				next += 8
				mu.Unlock()
				if lo >= len(sources) {
					return
				}
				hi := lo + 8
				if hi > len(sources) {
					hi = len(sources)
				}
				for _, s := range sources[lo:hi] {
					bs.source(g, s, acc)
				}
			}
		}(w)
	}
	wg.Wait()

	out := make([]float64, n)
	for _, p := range partials {
		for v := range out {
			out[v] += p[v]
		}
	}
	// The per-source accumulation counts each ordered pair once, i.e.
	// each unordered pair twice on an undirected graph.
	if counting == PairsUnordered {
		scale /= 2
	}
	if scale != 1 {
		for v := range out {
			out[v] *= scale
		}
	}
	return out
}

// BetweennessNaive computes betweenness by explicit shortest-path
// counting per pair: for each pair (s, t) it counts σ(s,t) and σ_v(s,t)
// using the identity σ_v(s,t) = σ(s,v)·σ(v,t) when
// dist(s,v)+dist(v,t) = dist(s,t). It is O(n²·m)-ish and exists purely
// as a differential-testing oracle for Brandes.
func BetweennessNaive(g graph.View, counting PairCounting) []float64 {
	n := g.N()
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		bs := newBrandesScratch(n)
		bs.source(g, s, make([]float64, n)) // reuse its sigma computation
		dist[s] = append([]int32(nil), bs.dist...)
		sigma[s] = append([]float64(nil), bs.sigma...)
	}
	out := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] == Unreachable {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t {
					continue
				}
				if dist[s][v] != Unreachable && dist[v][t] != Unreachable &&
					dist[s][v]+dist[v][t] == dist[s][t] {
					out[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	if counting == PairsUnordered {
		for v := range out {
			out[v] /= 2
		}
	}
	return out
}
