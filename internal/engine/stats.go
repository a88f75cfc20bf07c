package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"promonet/internal/obs"
)

// counters is the engine's live instrumentation. Every slot is
// lock-free: the request/traversal totals are obs.Counter handles
// (registry-backed for the Default engine, standalone otherwise), and
// the per-family wall-clock table is a fixed array indexed by the
// compute family — pre-registered at construction, so a cache miss
// never takes a lock to find its row (the old map+mutex table
// serialized every miss across all workers).
type counters struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bfsRuns   *obs.Counter
	brandes   *obs.Counter

	// deltaHits counts candidate edges priced through the incremental
	// delta path; deltaFallbacks counts candidates of the measures the
	// delta scorer cannot price incrementally (coreness, degree, Katz),
	// which are priced on a mutated clone.
	deltaHits      *obs.Counter
	deltaFallbacks *obs.Counter

	families [numFamilies]familySlot
}

// familySlot accumulates one compute family's cost, lock-free.
type familySlot struct {
	computes  atomic.Uint64
	wallNanos atomic.Int64
}

// newCounters wires the counter handles: into reg under
// "<prefix>.<name>" when a registry is given (so /debug/vars exposes
// them), standalone otherwise.
func newCounters(reg *obs.Registry, prefix string) counters {
	if reg == nil {
		return counters{
			hits:           obs.NewCounter(),
			misses:         obs.NewCounter(),
			evictions:      obs.NewCounter(),
			bfsRuns:        obs.NewCounter(),
			brandes:        obs.NewCounter(),
			deltaHits:      obs.NewCounter(),
			deltaFallbacks: obs.NewCounter(),
		}
	}
	return counters{
		hits:           reg.Counter(prefix + ".hits"),
		misses:         reg.Counter(prefix + ".misses"),
		evictions:      reg.Counter(prefix + ".evictions"),
		bfsRuns:        reg.Counter(prefix + ".bfs_runs"),
		brandes:        reg.Counter(prefix + ".brandes_runs"),
		deltaHits:      reg.Counter(prefix + ".delta_hits"),
		deltaFallbacks: reg.Counter(prefix + ".delta_fallbacks"),
	}
}

// noteCompute records one cache-missed computation of a family.
func (c *counters) noteCompute(f family, wall time.Duration) {
	c.misses.Inc()
	sl := &c.families[f]
	sl.computes.Add(1)
	sl.wallNanos.Add(int64(wall))
}

// Stats is a point-in-time snapshot of an engine's counters: memoization
// effectiveness, raw traversal counts, and wall-clock per compute
// family. Obtain one with (*Engine).Stats.
type Stats struct {
	// Hits and Misses count score requests served from the memo table
	// versus computed. Evictions counts memo entries dropped by the LRU
	// bound.
	Hits, Misses, Evictions uint64
	// BFSRuns and BrandesRuns count single-source traversals actually
	// executed (the engine's unit of work).
	BFSRuns, BrandesRuns uint64
	// DeltaHits counts candidate edges priced through the incremental
	// delta path of EvaluateEdgeBatch; DeltaFallbacks counts candidates
	// priced by a clone-and-recompute (coreness, degree, Katz).
	DeltaHits, DeltaFallbacks uint64
	// PerFamily breaks down computed (cache-missed) work by compute
	// family, sorted by family name.
	PerFamily []FamilyStats
}

// FamilyStats is one compute family's share of the engine's work.
type FamilyStats struct {
	// Family is the compute-family name, e.g. "betweenness" or
	// "distance-sweep" (which covers closeness, farness, harmonic, and
	// both eccentricity variants).
	Family string
	// Computes is the number of cache-missed computations.
	Computes uint64
	// Wall is the total wall-clock time spent computing.
	Wall time.Duration
}

// HitRate is the fraction of score requests served from the memo table,
// in [0, 1]; 0 when nothing has been requested yet.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the snapshot as one human-readable line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d hits / %d misses (%.0f%% hit rate), %d BFS + %d Brandes runs, %d evictions",
		s.Hits, s.Misses, 100*s.HitRate(), s.BFSRuns, s.BrandesRuns, s.Evictions)
	if s.DeltaHits+s.DeltaFallbacks > 0 {
		fmt.Fprintf(&b, ", %d delta hits / %d delta fallbacks", s.DeltaHits, s.DeltaFallbacks)
	}
	for _, f := range s.PerFamily {
		fmt.Fprintf(&b, "; %s %d× in %v", f.Family, f.Computes, f.Wall.Round(time.Microsecond))
	}
	return b.String()
}

// Manifest converts the snapshot to the manifest/expvar schema type
// (obs cannot import this package, so the conversion lives here).
func (s Stats) Manifest() obs.EngineStats {
	out := obs.EngineStats{
		Hits:           s.Hits,
		Misses:         s.Misses,
		Evictions:      s.Evictions,
		BFSRuns:        s.BFSRuns,
		BrandesRuns:    s.BrandesRuns,
		DeltaHits:      s.DeltaHits,
		DeltaFallbacks: s.DeltaFallbacks,
		HitRate:        s.HitRate(),
	}
	for _, f := range s.PerFamily {
		out.PerFamily = append(out.PerFamily, obs.EngineFamilyStats{
			Family:    f.Family,
			Computes:  f.Computes,
			WallNanos: int64(f.Wall),
		})
	}
	return out
}

// MarshalJSON renders the snapshot in the manifest schema, making
// engine stats consumable by scripted runs (promoctl -json) and run
// manifests, not just the human stderr line.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Manifest())
}

// Delta returns the work done between an earlier snapshot of the same
// engine and this one: every counter minus its prev value, per-family
// rows subtracted by name (families with no new computes are dropped).
// The experiments harness uses it to attribute engine work to one
// dataset×measure cell.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		Hits:           s.Hits - prev.Hits,
		Misses:         s.Misses - prev.Misses,
		Evictions:      s.Evictions - prev.Evictions,
		BFSRuns:        s.BFSRuns - prev.BFSRuns,
		BrandesRuns:    s.BrandesRuns - prev.BrandesRuns,
		DeltaHits:      s.DeltaHits - prev.DeltaHits,
		DeltaFallbacks: s.DeltaFallbacks - prev.DeltaFallbacks,
	}
	before := make(map[string]FamilyStats, len(prev.PerFamily))
	for _, f := range prev.PerFamily {
		before[f.Family] = f
	}
	for _, f := range s.PerFamily {
		b := before[f.Family]
		if f.Computes == b.Computes {
			continue
		}
		d.PerFamily = append(d.PerFamily, FamilyStats{
			Family:   f.Family,
			Computes: f.Computes - b.Computes,
			Wall:     f.Wall - b.Wall,
		})
	}
	return d
}

// Stats returns a snapshot of the engine's counters since creation (or
// the last ResetStats).
func (e *Engine) Stats() Stats {
	s := Stats{
		Hits:           e.counters.hits.Value(),
		Misses:         e.counters.misses.Value(),
		Evictions:      e.counters.evictions.Value(),
		BFSRuns:        e.counters.bfsRuns.Value(),
		BrandesRuns:    e.counters.brandes.Value(),
		DeltaHits:      e.counters.deltaHits.Value(),
		DeltaFallbacks: e.counters.deltaFallbacks.Value(),
	}
	for f := family(0); f < numFamilies; f++ {
		sl := &e.counters.families[f]
		computes := sl.computes.Load()
		if computes == 0 {
			continue
		}
		s.PerFamily = append(s.PerFamily, FamilyStats{
			Family:   f.String(),
			Computes: computes,
			Wall:     time.Duration(sl.wallNanos.Load()),
		})
	}
	sort.Slice(s.PerFamily, func(a, b int) bool { return s.PerFamily[a].Family < s.PerFamily[b].Family })
	return s
}

// ResetStats zeroes all counters; the memo table is left intact.
func (e *Engine) ResetStats() {
	e.counters.hits.Set(0)
	e.counters.misses.Set(0)
	e.counters.evictions.Set(0)
	e.counters.bfsRuns.Set(0)
	e.counters.brandes.Set(0)
	e.counters.deltaHits.Set(0)
	e.counters.deltaFallbacks.Set(0)
	for f := range e.counters.families {
		e.counters.families[f].computes.Store(0)
		e.counters.families[f].wallNanos.Store(0)
	}
}
