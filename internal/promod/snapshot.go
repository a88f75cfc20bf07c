package promod

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/obs"
)

// snapshotState is one installed host snapshot plus everything a request
// derives from it: the serving view, the label↔ID mapping, and the
// lazily memoized digest, per-measure rank indexes and manifests,
// farness and ĒC vectors. Each lazy value is built once on first use
// and lives exactly as long as the state: no answer-cache churn evicts
// it, and it is garbage-collected with the state once no request pins
// it. The host is immutable after buildState returns; the swap protocol
// only ever replaces the whole pointer, so a request that loaded the
// pointer once computes against a consistent host no matter how many
// reloads land while it runs.
type snapshotState struct {
	view    graph.View
	snap    *csr.Snapshot // non-nil on the csr backend
	g       *graph.Graph  // non-nil on the map backend
	eng     *engine.Engine
	labels  []int64       // ID → label; nil means identity
	index   map[int64]int // label → ID; nil means identity
	name    string
	backend string
	n, m    int
	version uint64
	seq     uint64
	loaded  time.Time

	digestOnce sync.Once
	digest     string

	measures [len(servable)]measureSlot // by measureSpec.ord
	farOnce  sync.Once
	far      []int64
	eccOnce  sync.Once
	ecc      []float64
}

// measureSlot is one measure's serving state on one snapshot.
type measureSlot struct {
	once sync.Once
	ri   *rankIndex
	man  *obs.Manifest // response manifest, validated by Encode
	err  error
}

// buildState freezes (or adopts) a freshly loaded host into serving
// state. It runs off to the side of the request path: the state only
// becomes visible via the atomic store in Reload.
func (s *Server) buildState(g *graph.Graph, labels []int64) (*snapshotState, error) {
	if labels != nil && len(labels) != g.N() {
		return nil, fmt.Errorf("promod: source returned %d labels for %d nodes", len(labels), g.N())
	}
	st := &snapshotState{
		eng:    s.eng,
		labels: labels,
		name:   s.cfg.Source.Name,
		n:      g.N(),
		m:      g.M(),
		seq:    s.seq.Add(1),
		loaded: time.Now(),
	}
	if s.cfg.Backend == "map" {
		st.backend = "map"
		st.g = g
		st.view = g
		st.version = g.Version()
	} else {
		st.backend = "csr"
		st.snap = csr.Freeze(g)
		st.view = st.snap
		st.version = st.snap.Version()
	}
	if labels != nil {
		idx := make(map[int64]int, len(labels))
		for id, l := range labels {
			idx[l] = id
		}
		st.index = idx
	}
	return st, nil
}

// Digest returns the host's content digest, computed on first use and
// memoized for the snapshot's lifetime (hashing a 10⁶-node host costs
// an O(m) pass — paying it once per swap, not per request, matters).
func (st *snapshotState) Digest() string {
	st.digestOnce.Do(func() {
		if st.snap != nil {
			st.digest = st.snap.Digest()
		} else {
			st.digest = graph.Digest(st.g)
		}
	})
	return st.digest
}

// serving returns spec's rank index and validated response manifest on
// this snapshot. The manifest is a pure function of (snapshot, measure),
// so every answer for the measure shares it.
func (st *snapshotState) serving(spec measureSpec) (*rankIndex, *obs.Manifest, error) {
	sl := &st.measures[spec.ord]
	sl.once.Do(func() {
		sl.err = errors.New("promod: serving-state build aborted") // kept if the build panics
		man := st.manifest(spec.name)
		if _, err := man.Encode(); err != nil {
			sl.err = err
			return
		}
		sl.ri, sl.man, sl.err = buildRankIndex(st.eng.Scores(st.view, spec.em)), man, nil
	})
	return sl.ri, sl.man, sl.err
}

// farness returns the integer farness vector (closeness bounds work in
// farness space).
func (st *snapshotState) farness() []int64 {
	st.farOnce.Do(func() { st.far = st.eng.FarnessInt64(st.view) })
	return st.far
}

// recipEcc returns the reciprocal-eccentricity vector ĒC (max BFS
// distance per node).
func (st *snapshotState) recipEcc() []float64 {
	st.eccOnce.Do(func() { st.ecc = st.eng.Scores(st.view, engine.ReciprocalEccentricity()) })
	return st.ecc
}

// nodeOf resolves an external label to a node ID on this snapshot.
func (st *snapshotState) nodeOf(label int64) (int, bool) {
	if st.index == nil {
		if label < 0 || label >= int64(st.n) {
			return 0, false
		}
		return int(label), true
	}
	id, ok := st.index[label]
	return id, ok
}

// labelOf maps a node ID back to its external label.
func (st *snapshotState) labelOf(id int) int64 {
	if st.labels == nil {
		return int64(id)
	}
	return st.labels[id]
}

// info renders the snapshot's public description.
func (st *snapshotState) info() SnapshotInfo {
	return SnapshotInfo{
		Seq:      st.seq,
		Name:     st.name,
		Backend:  st.backend,
		N:        st.n,
		M:        st.m,
		Digest:   st.Digest(),
		LoadedAt: st.loaded.UTC().Format(time.RFC3339),
	}
}

// manifest builds the response manifest for a query answered on this
// snapshot. The Dataset digest is the load-bearing field: it proves
// which host the answer was computed against, which is what the
// swap-race test (and any auditing client) checks.
func (st *snapshotState) manifest(measure string) *obs.Manifest {
	man := obs.NewManifest("promod", 0)
	man.Dataset = &obs.DatasetInfo{Name: st.name, N: st.n, M: st.m, Digest: st.Digest()}
	man.Measure = measure
	return man
}
