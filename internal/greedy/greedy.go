// Package greedy implements the structure-aware baseline the paper
// compares against in Section VII-C: the greedy edge-addition algorithm
// of Bergamini et al. [18] for improving a target node's betweenness
// score. Unlike the black-box strategies of internal/core, Greedy
// requires full knowledge of the network structure — it evaluates the
// betweenness gain of every candidate edge each round.
package greedy

import (
	"context"
	"fmt"
	"math/rand"

	"promonet/internal/centrality"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/obs"
)

// Options configures the baseline.
//
// Tie-breaking contract: every baseline in this package evaluates its
// candidates in increasing node-id order and replaces the incumbent
// only on a strict improvement, so among equally-scoring candidates the
// lowest-numbered node always wins. The contract holds under
// CandidateSample too — the sampled set is re-sorted before evaluation
// — making runs with equal sampled sets bitwise reproducible.
type Options struct {
	// Counting is the betweenness pair convention (must match whatever
	// the black-box side uses when comparing).
	Counting centrality.PairCounting
	// CandidateSample, when > 0, evaluates only that many uniformly
	// sampled non-neighbor candidates per round instead of all of them.
	// This only weakens the baseline and is off (0 = exhaustive) for
	// the paper-comparison experiments; it exists to keep the baseline
	// usable on large hosts. The sample is evaluated in increasing
	// node-id order, preserving the lowest-id tie-break.
	CandidateSample int
	// PivotSources, when > 0, estimates betweenness from that many BFS
	// pivots (Brandes–Pich) instead of exactly. 0 means exact.
	PivotSources int
	// Rand supplies randomness for sampling; required when
	// CandidateSample or PivotSources is set.
	Rand *rand.Rand
}

// Result reports one Greedy run.
type Result struct {
	// Edges are the b selected edges (v, t) in selection order.
	Edges [][2]int
	// ScorePerRound[i] is BC(t) after inserting i+1 edges.
	ScorePerRound []float64
	// AfterPerRound[i] is the full betweenness vector after inserting
	// i+1 edges — what the comparison experiments (Figs. 8–9) need to
	// rank the target at every budget.
	AfterPerRound [][]float64
	// Before and After are the full betweenness vectors on G and the
	// final G′ (same node set — Greedy adds no nodes).
	Before, After []float64
}

// Improve runs the greedy algorithm: b rounds, each inserting the edge
// (v, t) with v ∉ N(t) that maximizes the betweenness improvement
// Δ_C(t | v) of the target (ties broken toward the lowest-id candidate;
// see Options). The input graph is not modified; the updated graph is
// returned alongside the result.
//
// Candidate pricing goes through the engine's incremental delta scorer
// (engine.EvaluateEdgeBatch): the base Brandes structures are computed
// once per round, and each candidate re-runs Brandes only from the
// sources whose dependency on the target its edge can change to a
// nonzero value; the candidates of a round are priced in parallel on
// the engine's pool, bitwise as a sequential run would price them. The
// pivot-sampled path (PivotSources > 0) keeps the classic
// mutate-score-revert loop, because its per-probe pivot resample must
// draw from the caller's advancing Options.Rand.
//
// The working graph is a CSR overlay over a one-time frozen snapshot of
// g (graph/csr): each round's winning edge touches two overlay rows
// instead of cloning the host, so b rounds cost O(b) row copies rather
// than O(n + m) up front.
func Improve(g *graph.Graph, target, budget int, opts Options) (*graph.Graph, *Result, error) {
	if target < 0 || target >= g.N() {
		return nil, nil, fmt.Errorf("greedy: target %d outside [0, %d)", target, g.N())
	}
	if budget < 1 {
		return nil, nil, fmt.Errorf("greedy: budget %d, want >= 1", budget)
	}
	if (opts.CandidateSample > 0 || opts.PivotSources > 0) && opts.Rand == nil {
		return nil, nil, fmt.Errorf("greedy: sampling options require Options.Rand")
	}

	ctx, root := obs.Start(context.Background(), "greedy/improve")
	root.Int("target", target)
	root.Int("budget", budget)
	root.Int("n", g.N())
	root.Int("m", g.M())
	defer root.End()

	work := csr.NewOverlay(csr.Freeze(g))
	res := &Result{Before: scores(g, opts)}

	for round := 0; round < budget; round++ {
		_, sp := obs.Start(ctx, "greedy/round")
		sp.Int("round", round)
		// Each round is hundreds of mutate-score-revert probes; the
		// engine-side traversal deltas attribute their true cost. Only
		// snapshot stats when a recorder is live — Stats() walks the
		// family table and allocates.
		var statsBefore engine.Stats
		traced := obs.Enabled()
		if traced {
			statsBefore = engine.Default().Stats()
		}
		cands := candidates(work, target, opts)
		sp.Int("candidates", len(cands))
		if len(cands) == 0 {
			sp.End()
			break // target already adjacent to everyone
		}
		bestV, bestScore := -1, 0.0
		var bestVector []float64
		if opts.PivotSources > 0 && opts.PivotSources < work.N() {
			// Pivot resampling draws fresh pivots per probe from the
			// caller's advancing rng, so this path keeps the classic
			// mutate-score-revert loop.
			for _, v := range cands {
				work.AddEdge(target, v)
				vec := scores(work, opts)
				work.RemoveEdge(target, v)
				if s := vec[target]; bestV == -1 || s > bestScore {
					bestV, bestScore, bestVector = v, s, vec
				}
			}
			work.AddEdge(target, bestV)
		} else {
			// Delta path: one batch call prices every candidate without
			// mutating work; only the winner's graph is scored in full
			// (AfterPerRound needs the whole vector anyway).
			gains := engine.Default().EvaluateEdgeBatch(work, target, cands, engine.Betweenness(opts.Counting))
			bestV, bestScore = cands[0], gains[0]
			for i := 1; i < len(gains); i++ {
				if gains[i] > bestScore {
					bestV, bestScore = cands[i], gains[i]
				}
			}
			work.AddEdge(target, bestV)
			bestVector = scores(work, opts)
			bestScore = bestVector[target]
		}
		res.Edges = append(res.Edges, [2]int{bestV, target})
		res.ScorePerRound = append(res.ScorePerRound, bestScore)
		res.AfterPerRound = append(res.AfterPerRound, bestVector)
		if traced {
			d := engine.Default().Stats().Delta(statsBefore)
			sp.Int64("bfs_runs", int64(d.BFSRuns))
			sp.Int64("brandes_runs", int64(d.BrandesRuns))
		}
		sp.End()
	}
	if len(res.AfterPerRound) > 0 {
		res.After = res.AfterPerRound[len(res.AfterPerRound)-1]
	} else {
		res.After = scores(work, opts)
	}
	return work.Materialize(), res, nil
}

// candidates returns the nodes not adjacent to target (and not target
// itself) in increasing id order, optionally subsampled. The order is
// what makes the lowest-id tie-break of Options hold.
func candidates(g graph.View, target int, opts Options) []int {
	return nonNeighbors(g, target, opts.CandidateSample, opts.Rand)
}

// scores evaluates the betweenness vector of one candidate graph. The
// exact path goes through the shared execution engine: greedy rounds
// re-score hundreds of mutate-evaluate-revert variants, and reverted
// graphs hit the engine's content-addressed memo table instead of
// recomputing. The pivot-sampled path must keep drawing from the
// caller's advancing opts.Rand (each round re-samples pivots), so it
// stays on the direct function.
func scores(g graph.View, opts Options) []float64 {
	if opts.PivotSources > 0 && opts.PivotSources < g.N() {
		//promolint:allow engine-bypass -- pivots must come from the caller's advancing opts.Rand; the engine's seeded-pivot measure would freeze the per-round resample
		return centrality.BetweennessSampled(g, opts.Counting, opts.PivotSources, opts.Rand)
	}
	return engine.Default().Scores(g, engine.Betweenness(opts.Counting))
}
