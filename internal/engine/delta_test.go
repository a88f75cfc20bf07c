package engine

import (
	"math"
	"math/rand"
	"testing"

	"promonet/internal/centrality"
	"promonet/internal/datasets"
	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
)

// Differential tests for the delta scorer: EvaluateEdgeBatch against
// the ground truth of physically inserting each candidate edge into a
// clone and running the full scoring path. BFS-family measures must
// agree bitwise; betweenness within floating-point accumulation order.

// deltaMeasuresBitwise are the measures whose delta path promises
// bitwise equality with the full recompute.
var deltaMeasuresBitwise = []Measure{
	Closeness(), Farness(), Harmonic(), Eccentricity(), ReciprocalEccentricity(),
}

// deltaHosts builds the graphs the delta differential suite runs on:
// random, scale-free, disconnected (two components plus isolated
// nodes), and the paper's Fig. 1 fixture.
func deltaHosts() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(7))
	disc := gen.ErdosRenyi(rng, 30, 60)
	// Attach a second component (a path) and two isolated nodes.
	base := disc.AddNodes(8)
	for i := 0; i < 7; i++ {
		disc.AddEdge(base+i, base+i+1)
	}
	disc.AddNodes(2)
	return map[string]*graph.Graph{
		"er":           gen.ErdosRenyi(rng, 40, 90),
		"ba":           gen.BarabasiAlbert(rng, 40, 3),
		"disconnected": disc,
		"fig1":         datasets.Fig1(),
	}
}

// fullEdgeScore is the ground truth for one candidate: clone, insert,
// score the full measure, read the target.
func fullEdgeScore(t *testing.T, e *Engine, g *graph.Graph, target, v int, m Measure) float64 {
	t.Helper()
	h := g.Clone()
	if v != target {
		h.AddEdge(target, v)
	}
	return e.Scores(h, m)[target]
}

// allCandidates lists every node except the target (neighbors and
// non-neighbors alike: adjacent candidates must score the unchanged
// graph, and including them exercises that path).
func allCandidates(g graph.View, target int) []int {
	var cands []int
	for v := 0; v < g.N(); v++ {
		if v != target {
			cands = append(cands, v)
		}
	}
	return cands
}

func TestDeltaBatchMatchesFullRecompute(t *testing.T) {
	for name, g := range deltaHosts() {
		g := g
		t.Run(name, func(t *testing.T) {
			e := New(4)
			defer e.Close()
			for _, target := range []int{0, g.N() / 2, g.N() - 1} {
				cands := allCandidates(g, target)
				for _, m := range deltaMeasuresBitwise {
					got := e.EvaluateEdgeBatch(g, target, cands, m)
					for i, v := range cands {
						want := fullEdgeScore(t, e, g, target, v, m)
						if got[i] != want {
							t.Fatalf("%s target %d cand %d: delta %v, full %v (must be bitwise equal)",
								m, target, v, got[i], want)
						}
					}
				}
				for _, m := range []Measure{
					Betweenness(centrality.PairsOrdered),
					Betweenness(centrality.PairsUnordered),
				} {
					got := e.EvaluateEdgeBatch(g, target, cands, m)
					for i, v := range cands {
						want := fullEdgeScore(t, e, g, target, v, m)
						if !closeEnough(got[i], want) {
							t.Fatalf("%s target %d cand %d: delta %v, full %v",
								m, target, v, got[i], want)
						}
					}
				}
			}
		})
	}
}

// closeEnough compares betweenness values within 1e-9 relative error —
// the delta path recomputes affected sources against a virtual edge, so
// only float accumulation order can differ from the full path.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestDeltaBatchNastyCases pins the three structurally hardest
// candidate shapes against full recomputes for all four paper measures.
func TestDeltaBatchNastyCases(t *testing.T) {
	allMeasures := append(append([]Measure(nil), deltaMeasuresBitwise...),
		Betweenness(centrality.PairsOrdered))

	cases := map[string]struct {
		build  func() *graph.Graph
		target int
		cand   int
	}{
		// The candidate edge merges the target's component with a second
		// one: every node of the far component goes from unreachable to
		// reachable.
		"component-merge": {
			build: func() *graph.Graph {
				g := gen.Path(5)
				first := g.AddNodes(5)
				for i := 0; i < 4; i++ {
					g.AddEdge(first+i, first+i+1)
				}
				return g
			},
			target: 0,
			cand:   7,
		},
		// A long path with a shortcut from one end to the other: the
		// new edge re-parents the whole far half of the BFS tree.
		"shortcut-reparent": {
			build:  func() *graph.Graph { return gen.Path(10) },
			target: 0,
			cand:   9,
		},
		// The target is an isolated node; the candidate edge is its
		// first edge ever (the base BFS sees a singleton component).
		"singleton-target": {
			build: func() *graph.Graph {
				g := gen.Cycle(6)
				g.AddNodes(1)
				return g
			},
			target: 6,
			cand:   2,
		},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			g := tc.build()
			e := New(2)
			defer e.Close()
			for _, m := range allMeasures {
				got := e.EvaluateEdgeBatch(g, tc.target, []int{tc.cand}, m)
				want := fullEdgeScore(t, e, g, tc.target, tc.cand, m)
				bitwise := m.kind != kindBetweenness
				if (bitwise && got[0] != want) || (!bitwise && !closeEnough(got[0], want)) {
					t.Fatalf("%s: delta %v, full %v", m, got[0], want)
				}
			}
		})
	}
}

// TestDeltaBatchDeterministicAcrossWorkers checks the strided-schedule
// contract: identical inputs produce bitwise-identical batches no
// matter the pool size, betweenness included (each candidate is priced
// sequentially by exactly one worker).
func TestDeltaBatchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.BarabasiAlbert(rng, 60, 3)
	target := 5
	cands := allCandidates(g, target)
	measures := append(append([]Measure(nil), deltaMeasuresBitwise...),
		Betweenness(centrality.PairsUnordered),
		BetweennessSampled(centrality.PairsOrdered, 20, 42),
	)
	var ref [][]float64
	for _, w := range []int{1, 2, 3, 8} {
		e := New(w)
		if width := e.bcBatchWidth(g, len(cands), g.N()); w > 1 && width < 2 {
			t.Fatalf("workers=%d: betweenness batch width %d, want the pool", w, width)
		}
		got := make([][]float64, len(measures))
		for i, m := range measures {
			got[i] = e.EvaluateEdgeBatch(g, target, cands, m)
		}
		e.Close()
		if ref == nil {
			ref = got
			continue
		}
		for i := range measures {
			for j := range got[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d measure %s cand %d: %v != %v (1-worker ref)",
						w, measures[i], cands[j], got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestDeltaBatchSampledBetweenness checks the pivot-sampled measure
// end to end: the delta base must draw the same pivot set as the full
// sampled computation.
func TestDeltaBatchSampledBetweenness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi(rng, 50, 120)
	e := New(4)
	defer e.Close()
	target := 7
	cands := allCandidates(g, target)
	for _, m := range []Measure{
		BetweennessSampled(centrality.PairsUnordered, 15, 99),
		BetweennessSampled(centrality.PairsOrdered, 200, 99), // k >= n: exact fallback
	} {
		got := e.EvaluateEdgeBatch(g, target, cands, m)
		for i, v := range cands {
			want := fullEdgeScore(t, e, g, target, v, m)
			if !closeEnough(got[i], want) {
				t.Fatalf("%s cand %d: delta %v, full %v", m, v, got[i], want)
			}
		}
	}
}

// referenceBCBatch prices one betweenness candidate the long way: the
// sum, in source order, of Kernel.BrandesDep against the virtual edge
// (target, v) over every source of the measure (all nodes, or the same
// pivot draw the engine makes), with no source skipped or reused.
func referenceBCBatch(g graph.View, target int, cands []int, m Measure) []float64 {
	n := g.N()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	scale := 1.0
	if m.sample > 0 && m.sample < n {
		sources = rand.New(rand.NewSource(m.seed)).Perm(n)[:m.sample]
		scale = float64(n) / float64(m.sample)
	}
	if m.counting == centrality.PairsUnordered {
		scale /= 2
	}
	k := centrality.NewKernel()
	out := make([]float64, len(cands))
	for i, v := range cands {
		eu, ev := target, v
		if v == target || g.HasEdge(target, v) {
			eu, ev = -1, -1
		}
		var sum float64
		for _, s := range sources {
			sum += k.BrandesDep(g, s, target, eu, ev)
		}
		out[i] = sum * scale
	}
	return out
}

// TestDeltaBatchBetweennessExact checks that reusing unchanged
// dependencies and skipping the sources whose new dependency is
// provably 0 changes no bit: the batch must equal referenceBCBatch
// exactly, on every backend, for structurally extreme targets and
// candidates, exact and pivot-sampled.
func TestDeltaBatchBetweennessExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tri := gen.BarabasiAlbert(rng, 60, 2)
	gen.TriadicClosure(rng, tri, 60)
	disc := gen.ErdosRenyi(rng, 40, 70)
	first := disc.AddNodes(10)
	for i := 0; i < 9; i++ {
		disc.AddEdge(first+i, first+i+1)
	}
	disc.AddNodes(2)
	hosts := map[string]*graph.Graph{
		"ba":           gen.BarabasiAlbert(rng, 60, 3),
		"triadic-ba":   tri,
		"disconnected": disc,
	}
	e := New(2)
	defer e.Close()
	for name, h := range hosts {
		n := h.N()
		single := h.AddNode() // a singleton target
		hub, minDeg := 0, 0
		for v := 0; v < n; v++ {
			if h.Degree(v) > h.Degree(hub) {
				hub = v
			}
			if h.Degree(v) > 0 && (h.Degree(minDeg) == 0 || h.Degree(v) < h.Degree(minDeg)) {
				minDeg = v // a degree-k target: the lowest degree present
			}
		}
		views := map[string]graph.View{"graph": h, "snapshot": csr.Freeze(h)}
		o := csr.NewOverlay(csr.Freeze(h))
		o.AddEdge(hub, single-1)
		views["overlay"] = o
		for vname, g := range views {
			for _, target := range []int{single, hub, minDeg, 3} {
				cands := allCandidates(g, target)
				for _, m := range []Measure{
					Betweenness(centrality.PairsOrdered),
					Betweenness(centrality.PairsUnordered),
					BetweennessSampled(centrality.PairsOrdered, 12, 5),
				} {
					if m.sample > 0 {
						// Put a pivot first among the candidates, so some
						// candidate is also a source.
						pivot := rand.New(rand.NewSource(m.seed)).Perm(g.N())[0]
						if pivot != target {
							cands = append([]int{pivot}, cands...)
						}
					}
					got := e.EvaluateEdgeBatch(g, target, cands, m)
					want := referenceBCBatch(g, target, cands, m)
					for i, v := range cands {
						if got[i] != want[i] {
							t.Fatalf("%s/%s %s target %d cand %d: batch %v, reference %v",
								name, vname, m, target, v, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestDeltaBatchSkipsZeroDependencies checks that the zero-dependency
// class fires: on a scale-free host, pricing every candidate must run
// fewer Brandes sources than the sources the reuse rule alone would
// re-run.
func TestDeltaBatchSkipsZeroDependencies(t *testing.T) {
	g := gen.BarabasiAlbert(rand.New(rand.NewSource(29)), 80, 3)
	target := 40
	cands := allCandidates(g, target)
	e := New(1)
	defer e.Close()
	m := Betweenness(centrality.PairsOrdered)
	base := e.deltaBCBaseFor(g, target, 0, m.seed)
	k := centrality.NewKernel()
	affected := uint64(0)
	for _, v := range cands {
		if g.HasEdge(target, v) {
			continue
		}
		dV, _, _ := k.BFS(g, v)
		for _, s := range base.sources {
			if base.dist[s] != dV[s] {
				affected++
			}
		}
	}
	before := e.Stats()
	e.EvaluateEdgeBatch(g, target, cands, m)
	runs := e.Stats().Delta(before).BrandesRuns
	if runs == 0 || runs >= affected {
		t.Fatalf("batch ran %d Brandes sources, want fewer than the %d affected ones and more than 0", runs, affected)
	}
}

// TestDeltaBatchCloneFallback covers measures outside the delta
// scorer's reach: they must still return correct per-candidate scores
// and count as fallbacks.
func TestDeltaBatchCloneFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gen.ErdosRenyi(rng, 30, 70)
	e := New(2)
	defer e.Close()
	target := 4
	cands := allCandidates(g, target)
	for _, m := range []Measure{Coreness(), Degree(), Katz()} {
		got := e.EvaluateEdgeBatch(g, target, cands, m)
		for i, v := range cands {
			want := fullEdgeScore(t, e, g, target, v, m)
			if got[i] != want {
				t.Fatalf("%s cand %d: batch %v, full %v", m, v, got[i], want)
			}
		}
	}
	if s := e.Stats(); s.DeltaFallbacks == 0 {
		t.Fatalf("clone fallback not counted: %+v", s)
	}
}

// TestDeltaBatchNoOpCandidates pins the no-op semantics: the target
// itself and existing neighbors score the unchanged graph.
func TestDeltaBatchNoOpCandidates(t *testing.T) {
	g := gen.Cycle(8)
	e := New(1)
	defer e.Close()
	target := 0
	cands := []int{0, 1, 7, 4} // self, both neighbors, one real candidate
	for _, m := range []Measure{Closeness(), Betweenness(centrality.PairsOrdered)} {
		got := e.EvaluateEdgeBatch(g, target, cands, m)
		unchanged := e.Scores(g, m)[target]
		for i, v := range cands[:3] {
			if got[i] != unchanged {
				t.Fatalf("%s no-op cand %d: %v, want unchanged score %v", m, v, got[i], unchanged)
			}
		}
		want := fullEdgeScore(t, e, g, target, 4, m)
		ok := got[3] == want
		if m.kind == kindBetweenness {
			ok = closeEnough(got[3], want)
		}
		if !ok {
			t.Fatalf("%s real cand 4: %v, want %v", m, got[3], want)
		}
	}
}

// TestDeltaBatchRepeatedOnSnapshot checks base-structure memoization:
// a second batch on the unchanged graph must not recompute the base
// (misses stay flat) and must return identical results.
func TestDeltaBatchRepeatedOnSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.ErdosRenyi(rng, 40, 90)
	e := New(2)
	defer e.Close()
	target := 2
	cands := allCandidates(g, target)
	m := Farness()
	first := e.EvaluateEdgeBatch(g, target, cands, m)
	misses := e.Stats().Misses
	second := e.EvaluateEdgeBatch(g, target, cands, m)
	if e.Stats().Misses != misses {
		t.Fatalf("second batch recomputed the base: misses %d -> %d", misses, e.Stats().Misses)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cand %d: %v then %v on unchanged graph", cands[i], first[i], second[i])
		}
	}
}
