// delta.go — incremental single-edge candidate evaluation.
//
// The greedy baselines (internal/greedy) price hundreds of candidate
// edges (target, v) per round. Before this layer, every probe was an
// add-edge → full-recompute → remove-edge cycle: each mutation bumps
// the graph version, so the engine's content memoization misses on
// every single probe and the full kernel cost is paid per candidate.
//
// EvaluateEdgeBatch instead computes the base BFS/Brandes structures of
// the working graph once per batch (memoized per graph snapshot, so one
// greedy round pays for them at most once) and scores each candidate
// incrementally, without ever mutating the shared graph:
//
//   - BFS-family measures (closeness, farness, harmonic, both
//     eccentricity variants) run an affected-frontier dynamic BFS: only
//     nodes whose distance to the target shrinks under the new edge are
//     re-relaxed, which handles the component-merge case (unreachable =
//     infinite distance shrinking to finite) for free. Aggregates are
//     patched in exact integer arithmetic, so the result is bitwise
//     identical to a full recompute.
//   - Betweenness uses restricted re-accumulation: one BFS from the
//     candidate v sorts every source s into one of three classes by
//     distances alone. When d(s, target) == d(s, v) its shortest-path
//     DAG cannot change, so it reuses the cached dependency
//     δ_s(target). When v is strictly closer and every old neighbour of
//     the target is at most d(s, v)+1 from s, the target has no
//     successor in the new DAG, so its new dependency is exactly 0 and
//     the source is skipped. Every other source re-runs Brandes against
//     a *virtual* edge, so the shared graph stays untouched.
//
// Candidates fan out over the engine's worker pool on the same
// deterministic strided schedule as the score families, with the width
// sized by the work one candidate really costs (a BFS per candidate for
// the BFS family, up to one Brandes run per source for betweenness).
// Each output slot is produced by exactly one worker with a fixed
// operation order, so batch results are bitwise reproducible across
// engine instances and worker counts.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"promonet/internal/centrality"
	"promonet/internal/graph"
	"promonet/internal/obs"
)

// spanDeltaBatch is the precomputed tracing-span name of one
// EvaluateEdgeBatch call.
const spanDeltaBatch = "engine/delta/batch"

// EvaluateEdgeBatch returns, for every candidate v in cands, the score
// of target under measure m on the graph g + {(target, v)} — the value
// Scores(g', m)[target] would report after AddEdge(target, v) — without
// mutating g. Results for BFS-family measures (closeness, farness,
// harmonic, eccentricity) are bitwise identical to the full recompute.
// Betweenness is bitwise the sum, in source order, of Kernel.BrandesDep
// against the virtual edge over every source, which agrees with the
// full recompute within floating-point accumulation order (the
// integer-valued path counts are identical); sources whose dependency
// is provably unchanged or provably 0 are not re-run. Candidates equal
// to the target or already adjacent to it score the unmodified graph,
// matching the no-op AddEdge semantics. Measures outside the delta
// scorer's reach (coreness, degree, Katz) are priced by a per-candidate
// clone-and-recompute and counted as fallbacks.
//
// The base structures are memoized per graph snapshot, so repeated
// batches on an unchanged graph (or several measures over one greedy
// round) pay for them once. EvaluateEdgeBatch is safe for concurrent
// use and panics if target is not a node of g.
func (e *Engine) EvaluateEdgeBatch(g graph.View, target int, cands []int, m Measure) []float64 {
	n := g.N()
	if target < 0 || target >= n {
		panic(fmt.Sprintf("engine: EvaluateEdgeBatch target %d outside [0, %d)", target, n))
	}
	out := make([]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	_, sp := obs.Start(context.Background(), spanDeltaBatch)
	sp.Int("n", n)
	sp.Int("target", target)
	sp.Int("candidates", len(cands))
	sp.Str("measure", m.Key())
	defer sp.End()

	switch m.kind {
	case kindCloseness, kindFarness, kindHarmonic, kindEccentricity, kindReciprocalEccentricity:
		e.deltaBatchSweep(g, target, cands, m, out)
	case kindBetweenness:
		e.deltaBatchBetweenness(g, target, cands, m, out)
	default:
		e.deltaBatchClone(g, target, cands, m, out)
	}
	return out
}

// --- BFS-family delta scoring ---

// deltaSweepBase is the once-per-snapshot base structure for BFS-family
// delta scoring: the distance vector from the target plus the exact
// aggregates every candidate patches.
type deltaSweepBase struct {
	dist  []int32 // d(target, ·); centrality.Unreachable outside the component
	histo []int32 // histo[d] = number of nodes at distance d from target
	far   int64   // Σ_u d(target, u) over reachable u
	ecc   int32   // max_u d(target, u) within the component
}

// deltaSweepBaseFor resolves (computing at most once per snapshot) the
// BFS-family base for (g, target).
func (e *Engine) deltaSweepBaseFor(g graph.View, target int) *deltaSweepBase {
	key := fmt.Sprintf("delta-sweep|t=%d", target)
	return e.resolve(g, key, famDelta, func() any {
		return e.computeDeltaSweepBase(g, target)
	}).(*deltaSweepBase)
}

func (e *Engine) computeDeltaSweepBase(g graph.View, target int) *deltaSweepBase {
	k := e.getKernel()
	defer e.putKernel(k)
	dist, _, ecc := k.BFS(g, target)
	e.counters.bfsRuns.Add(1)
	base := &deltaSweepBase{
		dist:  append([]int32(nil), dist...),
		histo: make([]int32, g.N()),
		ecc:   ecc,
	}
	for _, d := range base.dist {
		if d >= 0 {
			base.histo[d]++
		}
		if d > 0 {
			base.far += int64(d)
		}
	}
	return base
}

// deltaScratch is one worker's reusable state for affected-frontier
// BFS: patched distances are valid where mark[u] == epoch, so resetting
// between candidates costs one counter increment.
type deltaScratch struct {
	nd      []int32
	mark    []int32
	epoch   int32
	queue   []int32
	touched []int32
	histo   []int32 // worker-private copy of the base histogram (ecc only)
}

func newDeltaScratch(n int) *deltaScratch {
	return &deltaScratch{nd: make([]int32, n), mark: make([]int32, n)}
}

// frontier runs the affected-frontier dynamic BFS for the candidate
// edge (target, v): starting from v at distance 1, it re-relaxes
// exactly the nodes whose distance to target shrinks (previously
// unreachable nodes count as infinitely far, so a component merge is
// the same relaxation). Affected nodes are recorded in sc.touched with
// their new distances in sc.nd.
//
//promolint:hotpath
func (sc *deltaScratch) frontier(g graph.View, dT []int32, target, v int) {
	sc.epoch++
	sc.touched = sc.touched[:0]
	if v == target || (dT[v] >= 0 && dT[v] <= 1) {
		return // self-candidate or existing edge: nothing moves
	}
	sc.nd[v] = 1
	sc.mark[v] = sc.epoch
	sc.touched = append(sc.touched, int32(v)) //promolint:allow hotpath-alloc -- amortized: sc.touched reaches steady-state capacity and is length-reset between candidates
	q := append(sc.queue[:0], int32(v))       //promolint:allow hotpath-alloc -- amortized: sc.queue reaches steady-state capacity and is reused across candidates
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := sc.nd[u]
		for _, w := range g.Adjacency(int(u)) {
			cur := dT[w]
			if sc.mark[w] == sc.epoch {
				cur = sc.nd[w]
			}
			if cur >= 0 && cur <= du+1 {
				continue
			}
			if sc.mark[w] != sc.epoch {
				sc.mark[w] = sc.epoch
				sc.touched = append(sc.touched, w) //promolint:allow hotpath-alloc -- amortized: sc.touched reaches steady-state capacity and is length-reset between candidates
			}
			sc.nd[w] = du + 1
			q = append(q, w) //promolint:allow hotpath-alloc -- amortized: at most n enqueues into the reused scratch queue
		}
	}
	sc.queue = q[:0]
}

// deltaBatchSweep scores every candidate of a BFS-family measure
// through the affected frontier, fanned out on the strided schedule.
func (e *Engine) deltaBatchSweep(g graph.View, target int, cands []int, m Measure, out []float64) {
	base := e.deltaSweepBaseFor(g, target)
	n := g.N()
	needHisto := m.kind == kindEccentricity || m.kind == kindReciprocalEccentricity
	w := e.span(len(cands), n+g.M())
	e.forWorkers(w, func(worker int) {
		sc := newDeltaScratch(n)
		if needHisto {
			sc.histo = append([]int32(nil), base.histo...)
		}
		for i := worker; i < len(cands); i += w {
			sc.frontier(g, base.dist, target, cands[i])
			out[i] = sc.sweepScore(base, m)
		}
	})
	e.counters.deltaHits.Add(uint64(len(cands)))
}

// sweepScore turns the affected set of the last frontier call into the
// target's new score. Farness and eccentricity are patched in integer
// arithmetic (bitwise-exact); harmonic re-sums the patched distance
// vector in index order, reproducing the full sweep's floating-point
// sequence exactly.
//
//promolint:hotpath
func (sc *deltaScratch) sweepScore(base *deltaSweepBase, m Measure) float64 {
	dT := base.dist
	switch m.kind {
	case kindCloseness, kindFarness:
		far := base.far
		for _, u := range sc.touched {
			if old := dT[u]; old > 0 {
				far -= int64(old)
			}
			far += int64(sc.nd[u])
		}
		if m.kind == kindFarness {
			return float64(far)
		}
		if far > 0 {
			return 1 / float64(far)
		}
		return 0
	case kindHarmonic:
		var h float64
		for u, d := range dT {
			if sc.mark[u] == sc.epoch {
				d = sc.nd[u]
			}
			if d > 0 {
				h += 1 / float64(d)
			}
		}
		return h
	default: // kindEccentricity, kindReciprocalEccentricity
		maxNd := int32(0)
		for _, u := range sc.touched {
			if old := dT[u]; old >= 0 {
				sc.histo[old]--
			}
			sc.histo[sc.nd[u]]++
			if sc.nd[u] > maxNd {
				maxNd = sc.nd[u]
			}
		}
		ecc := base.ecc
		if maxNd > ecc {
			ecc = maxNd
		}
		for ecc > 0 && sc.histo[ecc] == 0 {
			ecc--
		}
		for _, u := range sc.touched { // revert for the next candidate
			sc.histo[sc.nd[u]]--
			if old := dT[u]; old >= 0 {
				sc.histo[old]++
			}
		}
		if m.kind == kindReciprocalEccentricity {
			return float64(ecc)
		}
		if ecc > 0 {
			return 1 / float64(ecc)
		}
		return 0
	}
}

// --- Betweenness delta scoring ---

// deltaBCBase is the once-per-snapshot base for betweenness delta
// scoring: the per-source dependencies of the target, the source set
// they were computed over, the distance vector from the target, and the
// per-source distance to the target's farthest neighbour, which
// together classify every source for a candidate.
type deltaBCBase struct {
	dist    []int32   // d(target, ·) on g
	sources []int     // all nodes, or the Brandes–Pich pivots
	deps    []float64 // deps[i] = δ_{sources[i]}(target) on g
	nbrFar  []int32   // nbrFar[i] = max over u ∈ N(target) of d(sources[i], u); see farthestNeighbour
	total   float64   // Σ deps in source order (the unscaled base score)
	scale   float64   // pivot scale n/k (1 when exact)
}

// Sentinels of deltaBCBase.nbrFar: farNoNeighbour (−∞) when the target
// is isolated, farUnreachable (+∞) when some neighbour of the target is
// not reachable from the source.
const (
	farNoNeighbour int32 = -1
	farUnreachable int32 = math.MaxInt32
)

// farthestNeighbour returns max over u ∈ nbrs of dist[u], with the
// nbrFar sentinels for an empty nbrs or an unreachable neighbour.
func farthestNeighbour(dist []int32, nbrs []int32) int32 {
	far := farNoNeighbour
	for _, u := range nbrs {
		d := dist[u]
		if d == centrality.Unreachable {
			return farUnreachable
		}
		if d > far {
			far = d
		}
	}
	return far
}

// deltaBCBaseFor resolves the betweenness base for (g, target) under
// the measure's pivot sampling (sample = 0 means exact; the pair
// counting convention does not enter — dependencies are stored in
// ordered-pair units and scaled at the end).
func (e *Engine) deltaBCBaseFor(g graph.View, target, sample int, seed int64) *deltaBCBase {
	key := fmt.Sprintf("delta-bc|t=%d|k=%d|seed=%d", target, sample, seed)
	return e.resolve(g, key, famDelta, func() any {
		return e.computeDeltaBCBase(g, target, sample, seed)
	}).(*deltaBCBase)
}

func (e *Engine) computeDeltaBCBase(g graph.View, target, sample int, seed int64) *deltaBCBase {
	n := g.N()
	base := &deltaBCBase{scale: 1}
	if sample > 0 {
		// One Perm draw from a fresh seeded rng — the same pivot set the
		// full sampled measure scores (rawBetweenness).
		base.sources = rand.New(rand.NewSource(seed)).Perm(n)[:sample]
		base.scale = float64(n) / float64(sample)
	} else {
		base.sources = make([]int, n)
		for i := range base.sources {
			base.sources[i] = i
		}
	}
	k := e.getKernel()
	dist, _, _ := k.BFS(g, target)
	base.dist = append([]int32(nil), dist...)
	e.putKernel(k)
	e.counters.bfsRuns.Add(1)

	nbrs := g.Adjacency(target)
	base.deps = make([]float64, len(base.sources))
	base.nbrFar = make([]int32, len(base.sources))
	w := e.span(len(base.sources), n+g.M())
	e.forWorkers(w, func(worker int) {
		kw := e.getKernel()
		defer e.putKernel(kw)
		runs := uint64(0)
		for i := worker; i < len(base.sources); i += w {
			base.deps[i] = kw.BrandesDep(g, base.sources[i], target, -1, -1)
			base.nbrFar[i] = farthestNeighbour(kw.BrandesDist(), nbrs)
			runs++
		}
		e.counters.brandes.Add(runs)
	})
	for _, d := range base.deps {
		base.total += d
	}
	return base
}

// bcBatchWidth is the parallel width of a betweenness batch: each
// candidate costs up to one Brandes run per source, not one BFS.
func (e *Engine) bcBatchWidth(g graph.View, cands, sources int) int {
	return e.span(cands, sources*(g.N()+g.M()))
}

// deltaBatchBetweenness scores every candidate by restricted
// re-accumulation against a virtual edge (target, v). For source s let
// a = d(s, target) and b = d(s, v) on g (∞ when unreachable) and F_s the
// base's nbrFar. Then
//
//   - a == b: the edge lies on no shortest path from s, and the cached
//     δ_s(target) is reused;
//   - b < a and F_s ≤ b+1: on g + (target, v), d′(s, target) = b+1 with
//     v as a predecessor, and every old neighbour u has
//     d′(s, u) = min(d(s, u), b+2) ≤ b+1, so the target has no successor
//     in the shortest-path DAG of s and δ′_s(target) = 0: the source is
//     skipped (re-running it would add +0.0, which changes no bit);
//   - otherwise Brandes re-runs from s against the virtual edge.
func (e *Engine) deltaBatchBetweenness(g graph.View, target int, cands []int, m Measure, out []float64) {
	n := g.N()
	sample := m.sample
	if sample >= n {
		sample = 0 // exact fallback, mirroring rawBetweenness
	}
	base := e.deltaBCBaseFor(g, target, sample, m.seed)
	scale := base.scale
	if m.counting == centrality.PairsUnordered {
		scale /= 2
	}
	w := e.bcBatchWidth(g, len(cands), len(base.sources))
	e.forWorkers(w, func(worker int) {
		k := e.getKernel()
		defer e.putKernel(k)
		var bfsRuns, brRuns uint64
		//promolint:hotpath
		for i := worker; i < len(cands); i += w {
			v := cands[i]
			if v == target || g.HasEdge(target, v) {
				out[i] = base.total * scale // no-op edge: the graph is unchanged
				continue
			}
			dV, _, _ := k.BFS(g, v)
			bfsRuns++
			var sum float64
			for idx, s := range base.sources {
				a, b := base.dist[s], dV[s]
				switch {
				case a == b:
					sum += base.deps[idx]
				case b != centrality.Unreachable && (a == centrality.Unreachable || b < a) && base.nbrFar[idx] <= b+1:
					// δ′_s(target) = 0
				default:
					sum += k.BrandesDep(g, s, target, target, v)
					brRuns++
				}
			}
			out[i] = sum * scale
		}
		e.counters.bfsRuns.Add(bfsRuns)
		e.counters.brandes.Add(brRuns)
	})
	e.counters.deltaHits.Add(uint64(len(cands)))
}

// --- Clone fallback for non-delta measures ---

// deltaBatchClone prices candidates for measures the delta scorer
// cannot patch incrementally (coreness, degree, Katz): each candidate
// scores a mutated private clone. Every candidate counts as a fallback.
func (e *Engine) deltaBatchClone(g graph.View, target int, cands []int, m Measure, out []float64) {
	w := e.span(len(cands), g.N()+g.M())
	e.forWorkers(w, func(worker int) {
		for i := worker; i < len(cands); i += w {
			h := graph.Materialize(g)
			if v := cands[i]; v != target {
				h.AddEdge(target, v)
			}
			var scores []float64
			switch m.kind {
			case kindCoreness:
				scores = centrality.CorenessFloat(h)
			case kindDegree:
				scores = centrality.Degree(h)
			case kindKatz:
				scores = centrality.KatzAuto(h)
			default:
				panic(fmt.Sprintf("engine: EvaluateEdgeBatch unsupported measure %s", m))
			}
			out[i] = scores[target]
		}
	})
	e.counters.deltaFallbacks.Add(uint64(len(cands)))
}
