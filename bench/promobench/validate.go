package main

import (
	"encoding/json"
	"fmt"
	"math"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph/csr"
	"promonet/internal/promod"
)

// validator checks promod's answers against a host the benchmark builds
// itself from the same seed. It runs after the timed window, so its
// recomputations never compete with the daemon for the cores.
type validator struct {
	plan   plan
	snap   *csr.Snapshot
	digest string
	eng    *engine.Engine
	// scores are the local base score vectors of the measures whose
	// answers are checked value by value.
	scores map[string][]float64
}

// sampleEvery is the exact-value sample rate: answer i is checked in
// full when plan.sampled(i, sampleEvery).
const sampleEvery = 64

// newValidator builds the workload's host and the local score vectors
// of the measures the sampled checks compare against.
func newValidator(p plan) *validator {
	snap := csr.Freeze(p.host())
	v := &validator{plan: p, snap: snap, digest: snap.Digest(), eng: engine.New(0), scores: map[string][]float64{}}
	for _, m := range p.measures {
		v.scores[m] = v.eng.Scores(snap, engineMeasure(m))
	}
	return v
}

// engineMeasure maps a served measure name to the engine measure promod
// scores it with.
func engineMeasure(name string) engine.Measure {
	switch name {
	case "betweenness":
		return engine.Betweenness(centrality.PairsUnordered)
	case "closeness":
		return engine.Closeness()
	case "eccentricity":
		return engine.Eccentricity()
	case "harmonic":
		return engine.Harmonic()
	case "katz":
		return engine.Katz()
	case "coreness":
		return engine.Coreness()
	default:
		return engine.Degree()
	}
}

// check validates the answer to op i of a stream, value by value when i
// is in the seeded sample.
func (v *validator) check(i int, o *op, r result) error {
	return v.checkAnswer(o, r, v.plan.sampled(i, sampleEvery))
}

// checkAnswer validates one answer. Every answer must be a 200 whose
// body decodes and names the expected host digest, in the snapshot and
// in the embedded manifest; with full, its values must also match the
// local ones.
func (v *validator) checkAnswer(o *op, r result, full bool) error {
	if !r.ok() {
		return fmt.Errorf("status %d", r.status)
	}
	switch o.kind {
	case opReload:
		var resp promod.ReloadResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("decoding reload answer: %w", err)
		}
		return v.checkDigest("reload snapshot", resp.Snapshot.Digest)
	case opScores:
		var resp promod.ScoresResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("decoding scores answer: %w", err)
		}
		if err := v.checkDigest("scores snapshot", resp.Snapshot.Digest); err != nil {
			return err
		}
		if resp.Measure != o.measure || len(resp.Nodes) != len(o.labels) {
			return fmt.Errorf("scores answer for %s with %d nodes, asked %s with %d", resp.Measure, len(resp.Nodes), o.measure, len(o.labels))
		}
		for j, nd := range resp.Nodes {
			if nd.Label != int64(o.labels[j]) {
				return fmt.Errorf("scores node %d is label %d, asked %d", j, nd.Label, o.labels[j])
			}
			if full {
				if err := v.checkStanding(o.measure, o.labels[j], nd.Score, nd.Rank); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var resp promod.PromoteResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("decoding promote answer: %w", err)
	}
	if err := v.checkDigest("promote snapshot", resp.Snapshot.Digest); err != nil {
		return err
	}
	if resp.Manifest == nil || resp.Manifest.Dataset == nil {
		return fmt.Errorf("promote answer has no manifest dataset")
	}
	if err := v.checkDigest("manifest dataset", resp.Manifest.Dataset.Digest); err != nil {
		return err
	}
	if resp.Target != int64(o.target) || resp.Measure != o.measure || resp.Size != o.size || (resp.Exact != nil) != o.exact {
		return fmt.Errorf("promote answer (target %d, %s, p=%d, exact %t) does not match the request", resp.Target, resp.Measure, resp.Size, resp.Exact != nil)
	}
	if !full {
		return nil
	}
	if err := v.checkStanding(o.measure, o.target, resp.ScoreBefore, resp.RankBefore); err != nil {
		return err
	}
	if o.measure == "degree" && !o.exact {
		want := resp.ScoreBefore + float64(o.size) // guided degree strategy: multi-point, p edges to the target
		if resp.PredictedScore == nil || *resp.PredictedScore != want {
			return fmt.Errorf("degree predicted_score %v, want %v", resp.PredictedScore, want)
		}
	}
	if o.exact {
		return v.checkExact(o, resp.Exact)
	}
	return nil
}

func (v *validator) checkDigest(what, got string) error {
	if got != v.digest {
		return fmt.Errorf("%s digest %.12s, want %.12s", what, got, v.digest)
	}
	return nil
}

// checkStanding compares a served score and rank with the local ones,
// bit for bit: promod and the validator score the same host with the same
// engine contract.
func (v *validator) checkStanding(measure string, label int, score float64, rank int) error {
	local, ok := v.scores[measure]
	if !ok {
		return nil
	}
	if math.Float64bits(local[label]) != math.Float64bits(score) {
		return fmt.Errorf("%s score of %d is %v, local %v", measure, label, score, local[label])
	}
	if want := centrality.RankOf(local, label); rank != want {
		return fmt.Errorf("%s rank of %d is %d, local %d", measure, label, rank, want)
	}
	return nil
}

// checkExact recomputes an exact answer on a local overlay. The engine's
// determinism contract makes the recomputation bitwise identical.
func (v *validator) checkExact(o *op, got *promod.ExactOutcome) error {
	m, err := core.MeasureByName(o.measure)
	if err != nil {
		return err
	}
	ov := csr.NewOverlay(v.snap)
	if _, err := (core.Strategy{Target: o.target, Size: o.size, Type: m.Strategy()}).ApplyTo(ov); err != nil {
		return err
	}
	after := v.eng.Scores(ov, engineMeasure(o.measure))
	if rank := centrality.RankOf(after, o.target); got.RankAfter != rank || math.Float64bits(got.ScoreAfter) != math.Float64bits(after[o.target]) {
		return fmt.Errorf("exact %s of %d p=%d: rank_after %d score %v, local %d score %v",
			o.measure, o.target, o.size, got.RankAfter, got.ScoreAfter, rank, after[o.target])
	}
	return nil
}
