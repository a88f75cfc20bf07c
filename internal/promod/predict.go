package promod

import (
	"fmt"
	"math"
	"sort"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
)

// measureSpec ties one servable centrality measure to its engine
// kernel, its paper metadata (principle, Table I strategy), and the
// prediction rule the daemon answers with.
type measureSpec struct {
	name string // canonical long name
	em   engine.Measure
	cm   core.Measure // principle + guided strategy + short name
	kind predictKind
	ord  int // index in servable, selecting the per-snapshot slot
}

// predictKind selects the closed-form prediction rule for a measure.
type predictKind int

const (
	// predictNone: no proved lemma (harmonic, Katz) — serve base
	// standing only and suggest exact mode.
	predictNone predictKind = iota
	// predictDegree: exact closed form — the new degree is the old one
	// plus the attached edges.
	predictDegree
	// predictBetweenness: Lemma 5.3 — multi-point overtakes v iff
	// (p−1)² > BC(v) − BC(t).
	predictBetweenness
	// predictCoreness: Lemma 5.6 — single-clique overtakes v iff
	// p > RC(v) + 1.
	predictCoreness
	// predictCloseness: Lemma 5.9 — multi-point overtakes v iff
	// p > (ĈC(t) − ĈC(v)) / dist(v, t).
	predictCloseness
	// predictEccentricity: Lemma 5.12 — double-line overtakes every
	// higher-ranked node iff p > 2·ĒC(t).
	predictEccentricity
)

// servable lists the measures the daemon serves, with their engine
// kernels and prediction rules. A measure's index is its ordinal, which
// picks its slot in snapshotState.measures.
var servable = [...]struct {
	name string
	em   engine.Measure
	kind predictKind
}{
	{"betweenness", engine.Betweenness(centrality.PairsUnordered), predictBetweenness},
	{"coreness", engine.Coreness(), predictCoreness},
	{"closeness", engine.Closeness(), predictCloseness},
	{"eccentricity", engine.Eccentricity(), predictEccentricity},
	{"degree", engine.Degree(), predictDegree},
	{"harmonic", engine.Harmonic(), predictNone},
	{"katz", engine.Katz(), predictNone},
}

// measureSpecByName resolves a long or short measure name to its
// serving spec, rejecting measures with no engine kernel.
func measureSpecByName(name string) (measureSpec, error) {
	cm, err := core.MeasureByName(name)
	if err != nil {
		return measureSpec{}, err
	}
	for ord, sv := range &servable {
		if sv.name == cm.Name() {
			return measureSpec{name: sv.name, em: sv.em, cm: cm, kind: sv.kind, ord: ord}, nil
		}
	}
	return measureSpec{}, fmt.Errorf("promod: measure %q has no serving kernel", cm.Name())
}

// strategyTypeByName parses a strategy-override string.
func strategyTypeByName(name string) (core.StrategyType, error) {
	switch name {
	case "multi-point":
		return core.MultiPoint, nil
	case "double-line":
		return core.DoubleLine, nil
	case "single-clique":
		return core.SingleClique, nil
	default:
		return 0, fmt.Errorf("promod: unknown strategy %q (want multi-point, double-line, or single-clique)", name)
	}
}

// rankIndex is a score vector plus its descending sort, giving O(log n)
// competition ranks and overtake counts and O(k) top-k listings. Built
// once per (snapshot, measure) and kept in the snapshot's measure slot.
type rankIndex struct {
	scores []float64 // by node ID
	order  []int32   // node IDs by descending score, ties ascending ID
	sorted []float64 // scores in order sequence (descending)
}

func buildRankIndex(scores []float64) *rankIndex {
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	sorted := make([]float64, len(scores))
	for i, id := range order {
		sorted[i] = scores[id]
	}
	return &rankIndex{scores: scores, order: order, sorted: sorted}
}

// countGreater returns #{v : score(v) > s}.
func (ri *rankIndex) countGreater(s float64) int {
	return sort.Search(len(ri.sorted), func(i int) bool { return ri.sorted[i] <= s })
}

// countGreaterEq returns #{v : score(v) ≥ s}.
func (ri *rankIndex) countGreaterEq(s float64) int {
	return sort.Search(len(ri.sorted), func(i int) bool { return ri.sorted[i] < s })
}

// rankOf returns v's competition rank (1 + strictly-greater count).
func (ri *rankIndex) rankOf(v int) int { return 1 + ri.countGreater(ri.scores[v]) }

// minAbove returns the smallest score strictly greater than s, or
// ok=false when s is already the maximum.
func (ri *rankIndex) minAbove(s float64) (float64, bool) {
	cnt := ri.countGreater(s)
	if cnt == 0 {
		return 0, false
	}
	return ri.sorted[cnt-1], true
}

// versionPrefix is the coalescer key prefix pinning an answer to one
// snapshot version.
func versionPrefix(version uint64) string { return fmt.Sprintf("v%d|", version) }

// prediction is the outcome of the closed-form rules for one strategy.
type prediction struct {
	mode           string
	predictedScore float64 // NaN when no closed form exists
	predictedRank  int
	delta          int
	guaranteedSize int
}

// sizeFromBound converts a real-valued p′ bound into the smallest
// integer size strictly exceeding it (mirrors core's finishBound).
func sizeFromBound(bound float64) int {
	if math.IsInf(bound, 1) || math.IsNaN(bound) {
		return 0
	}
	p := int(math.Floor(bound)) + 1
	if p < 1 {
		p = 1
	}
	return p
}

// predictWith evaluates the paper's closed-form rules for strat on the
// pinned snapshot. Under ModeGuaranteed the returned delta is a provable
// lower bound on the rank improvement; under ModeClosedForm it is exact;
// under ModeNone no prediction applies (the caller reports base standing
// only). Guided means strat.Type matches Table I for the measure —
// overridden strategies void the lemma.
func predictWith(st *snapshotState, spec measureSpec, strat core.Strategy, ri *rankIndex) prediction {
	t, p := strat.Target, strat.Size
	sT := ri.scores[t]
	rankBefore := ri.rankOf(t)
	pr := prediction{mode: ModeNone, predictedScore: math.NaN(), predictedRank: rankBefore}
	guided := strat.Type == spec.cm.Strategy()

	switch spec.kind {
	case predictDegree:
		// Exact closed form for every strategy type: the target's new
		// degree is its old degree plus the edges attached to it, and no
		// original node's degree changes. Inserted nodes never score
		// strictly above the target (their degree is at most p ≤ sT+p).
		attached := p
		if strat.Type == core.DoubleLine && p > 1 {
			attached = 2
		}
		after := sT + float64(attached)
		newRank := 1 + ri.countGreater(after)
		pr.mode = ModeClosedForm
		pr.predictedScore = after
		pr.predictedRank = newRank
		pr.delta = rankBefore - newRank
		if above, ok := ri.minAbove(sT); ok && strat.Type != core.DoubleLine {
			// p attached edges lift the score by p; the smallest
			// improving size strictly exceeds the gap to the next score.
			pr.guaranteedSize = sizeFromBound(above - sT)
		}

	case predictBetweenness:
		if !guided {
			break
		}
		gain := float64(p-1) * float64(p-1)
		over := ri.countGreater(sT) - ri.countGreaterEq(sT+gain)
		if over < 0 {
			over = 0
		}
		pr.mode = ModeGuaranteed
		pr.delta = over
		pr.predictedRank = rankBefore - over
		if above, ok := ri.minAbove(sT); ok {
			pr.guaranteedSize = sizeFromBound(core.BoostSizeBetweenness(sT, above))
		}

	case predictCoreness:
		if !guided {
			break
		}
		// Single-clique overtakes v iff p > RC(v)+1, i.e. RC(v) < p−1.
		over := ri.countGreater(sT) - ri.countGreaterEq(float64(p-1))
		if over < 0 {
			over = 0
		}
		pr.mode = ModeGuaranteed
		pr.delta = over
		pr.predictedRank = rankBefore - over
		if above, ok := ri.minAbove(sT); ok {
			pr.guaranteedSize = sizeFromBound(core.BoostSizeCoreness(int(above)))
		}

	case predictCloseness:
		if !guided {
			break
		}
		// The distances are used for this one answer and not kept: the
		// answer itself is what the coalescer caches.
		far, dist := st.farness(), centrality.Distances(st.view, t)
		over := 0
		best := math.Inf(1)
		for v := range far {
			if v == t || far[v] >= far[t] || dist[v] <= 0 {
				continue
			}
			bound := core.BoostSizeCloseness(far[t], far[v], int(dist[v]))
			if float64(p) > bound {
				over++
			}
			if bound < best {
				best = bound
			}
		}
		pr.mode = ModeGuaranteed
		pr.delta = over
		pr.predictedRank = rankBefore - over
		pr.guaranteedSize = sizeFromBound(best)

	case predictEccentricity:
		if !guided {
			break
		}
		recip := st.recipEcc()
		hasHigher := false
		for v := range recip {
			if recip[v] < recip[t] && recip[v] > 0 {
				hasHigher = true
				break
			}
		}
		if !hasHigher {
			pr.mode = ModeGuaranteed
			break // already top-ranked among comparable nodes
		}
		bound := core.BoostSizeEccentricity(int(recip[t]))
		pr.mode = ModeGuaranteed
		pr.guaranteedSize = sizeFromBound(bound)
		if float64(p) > bound {
			// Lemma 5.12: the double line pushes t's eccentricity below
			// every node's, overtaking the whole field above it.
			pr.delta = rankBefore - 1
			pr.predictedRank = 1
		}
	}
	return pr
}

// exactOutcome applies the strategy to a private copy of the pinned
// host and rescoring it with the engine — the measured ground truth the
// predictions bound. On the csr backend the copy is a csr.Overlay (a
// few touched rows, not a host clone); on the map backend it is a full
// materialized clone. It runs only inside the exact promote flight,
// which already single-flights and caches the answer.
func (s *Server) exactOutcome(st *snapshotState, spec measureSpec, strat core.Strategy, ri *rankIndex) (*ExactOutcome, error) {
	var after []float64
	var inserted []int
	var err error
	if st.snap != nil {
		ov := csr.NewOverlay(st.snap)
		if inserted, err = strat.ApplyTo(ov); err == nil {
			after = s.eng.Scores(ov, spec.em)
		}
	} else {
		g2 := graph.Materialize(st.g)
		if inserted, err = strat.ApplyTo(g2); err == nil {
			after = s.eng.Scores(g2, spec.em)
		}
	}
	if err != nil {
		return nil, err
	}
	rankAfter := centrality.RankOf(after, strat.Target)
	delta := ri.rankOf(strat.Target) - rankAfter
	return &ExactOutcome{
		ScoreAfter: after[strat.Target],
		RankAfter:  rankAfter,
		DeltaRank:  delta,
		Ratio:      centrality.Ratio(delta, st.n),
		Effective:  delta > 0,
		Inserted:   len(inserted),
	}, nil
}
