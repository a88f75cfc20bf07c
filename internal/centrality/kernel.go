package centrality

import "promonet/internal/graph"

// Kernel bundles the reusable per-worker scratch (BFS distances/queue,
// Brandes σ/δ/predecessor state, a betweenness accumulator) behind an
// exported facade, so that higher layers — in particular the pooled
// execution engine in internal/engine — can run many traversals without
// allocating per call or per source. A Kernel grows automatically when
// handed a larger graph and may be reused across graphs of different
// sizes; it is not safe for concurrent use, which is exactly the
// one-kernel-per-worker discipline sync.Pool provides.
type Kernel struct {
	bfs *bfsScratch
	br  *brandesScratch
	acc []float64
}

// NewKernel returns an empty kernel; buffers are allocated lazily on
// first use and sized to the largest graph seen so far.
func NewKernel() *Kernel { return &Kernel{} }

// BFS runs a breadth-first search from s and returns the distance
// vector (Unreachable for other components), the number of reached
// nodes, and the eccentricity of s within its component. The returned
// slice is owned by the kernel and overwritten by the next BFS call.
func (k *Kernel) BFS(g graph.View, s int) (dist []int32, reached int, ecc int32) {
	n := g.N()
	if k.bfs == nil || cap(k.bfs.dist) < n {
		k.bfs = newBFSScratch(n)
	}
	k.bfs.dist = k.bfs.dist[:n]
	reached, ecc = k.bfs.run(g, s)
	return k.bfs.dist, reached, ecc
}

// Brandes runs one source iteration of Brandes' algorithm from s,
// adding the ordered-pair dependencies of s into acc (len acc must be
// g.N()). Summing over all sources yields the ordered-pairs betweenness;
// see PairCounting for the factor-of-two relation to unordered counts.
func (k *Kernel) Brandes(g graph.View, s int, acc []float64) {
	n := g.N()
	if k.br == nil || len(k.br.preds) < n {
		k.br = newBrandesScratch(n)
	}
	k.br.source(g, s, acc)
}

// BrandesDep runs one source iteration of Brandes' algorithm from s on
// g augmented with the virtual undirected edge (eu, ev) and returns the
// dependency δ_s(t) of s on t (0 when s == t). Pass eu = ev = -1 to
// score g unmodified. The virtual edge lets the engine's delta scorer
// price a candidate edge without mutating the shared graph; the caller
// must ensure (eu, ev) is not already an edge of g (or pass -1s).
//
// Only the part of the backward pass that δ_s(t) depends on runs: none
// of it when t is unreachable or has no neighbour one level deeper than
// itself, and otherwise only the levels below t. The result is bitwise
// that of the full pass. The distances from s stay readable through
// BrandesDist until the next run.
func (k *Kernel) BrandesDep(g graph.View, s, t, eu, ev int) float64 {
	n := g.N()
	if k.br == nil || len(k.br.preds) < n {
		k.br = newBrandesScratch(n)
	}
	return k.br.sourceDep(g, s, t, int32(eu), int32(ev))
}

// BrandesDist returns the distance vector (Unreachable for other
// components) of the last Brandes or BrandesDep run, including the
// virtual edge if that run had one. It is indexed by node id of that
// run's graph and owned by the kernel: the next run overwrites it.
func (k *Kernel) BrandesDist() []int32 { return k.br.dist }

// Acc returns a zeroed accumulator of length n, reusing the kernel's
// buffer. It is the per-worker partial-sum vector for Brandes runs; the
// caller must merge it before returning the kernel to a pool.
func (k *Kernel) Acc(n int) []float64 {
	if cap(k.acc) < n {
		k.acc = make([]float64, n)
	}
	k.acc = k.acc[:n]
	for i := range k.acc {
		k.acc[i] = 0
	}
	return k.acc
}
