package promod

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"promonet/internal/graph"
	"promonet/internal/obs"
)

// serveOK answers one request through h and returns the body of a 200,
// or an error naming any other status. Safe to call from any goroutine.
func serveOK(h http.Handler, method, url string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// promoteOK posts req and decodes the answer.
func promoteOK(h http.Handler, req PromoteRequest) (*PromoteResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	raw, err := serveOK(h, http.MethodPost, "/v1/promote", body)
	if err != nil {
		return nil, err
	}
	var out PromoteResponse
	return &out, json.Unmarshal(raw, &out)
}

// servingOf returns a measure's slot contents on st, failing the test on
// a build error.
func servingOf(t *testing.T, st *snapshotState, measure string) (*rankIndex, *measureSlot) {
	t.Helper()
	spec, err := measureSpecByName(measure)
	if err != nil {
		t.Fatal(err)
	}
	ri, _, err := st.serving(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ri, &st.measures[spec.ord]
}

// TestRankIndexSurvivesCacheChurn: with an 8-entry answer cache, 200
// distinct promotions evict answers all the time, but each measure's
// rank index and manifest are built once per snapshot and never rebuilt.
func TestRankIndexSurvivesCacheChurn(t *testing.T) {
	g := testHost(10, 300)
	s := testServer(t, Config{Source: staticSource(g), CacheEntries: 8})
	h := s.Handler()
	st := s.state.Load()
	measures := []string{"degree", "coreness"}
	type pinned struct {
		ri  *rankIndex
		man *obs.Manifest
	}
	want := map[string]pinned{}
	for _, m := range measures {
		ri, sl := servingOf(t, st, m)
		want[m] = pinned{ri, sl.man}
	}

	const queriers, perQuerier = 4, 50
	errc := make(chan error, queriers*perQuerier*2+1)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(queriers)
	for q := 0; q < queriers; q++ {
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perQuerier; i++ {
				k := q*perQuerier + i // distinct (target, size) per request
				m := measures[k%2]
				resp, err := promoteOK(h, PromoteRequest{Target: int64(k % 150), Measure: m, Size: 2 + k/150})
				if err != nil {
					errc <- err
					continue
				}
				if resp.Manifest == nil || resp.Manifest.Dataset.Digest != graph.Digest(g) {
					errc <- fmt.Errorf("%s answer %d: manifest does not name the host", m, k)
				}
				if i%5 == 0 {
					if _, err := serveOK(h, http.MethodGet, "/v1/scores?measure="+m+"&top=3", nil); err != nil {
						errc <- err
					}
				}
			}
		}(q)
	}
	checked := make(chan struct{})
	go func() { // re-read the slots while the queriers churn the cache
		defer close(checked)
		for !done.Load() {
			for _, m := range measures {
				spec, _ := measureSpecByName(m)
				if ri, man, _ := st.serving(spec); ri != want[m].ri || man != want[m].man {
					errc <- fmt.Errorf("%s: serving state rebuilt under cache churn", m)
					return
				}
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	<-checked
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := s.coal.size(); got > 8 {
		t.Errorf("answer cache holds %d entries, bound 8", got)
	}
	for _, m := range measures {
		if ri, sl := servingOf(t, st, m); ri != want[m].ri || sl.man != want[m].man {
			t.Errorf("%s: rank index or manifest pointer changed after 200 distinct promotions", m)
		}
	}
}

// TestServingStateFreshAfterReload: a reload installs a state with its
// own slots, built from the new host, while queriers keep getting answers
// whose manifest names the host of the snapshot they were served from.
func TestServingStateFreshAfterReload(t *testing.T) {
	hosts := []*graph.Graph{testHost(11, 120), testHost(12, 150)}
	digests := []string{graph.Digest(hosts[0]), graph.Digest(hosts[1])}
	var loads atomic.Uint64
	s := testServer(t, Config{Source: Source{Name: "alternating", Load: func() (*graph.Graph, []int64, error) {
		return hosts[(loads.Add(1)-1)%2], nil, nil
	}}})
	h := s.Handler()
	measures := []string{"degree", "coreness", "closeness", "eccentricity"}
	old := s.state.Load()
	oldRI := map[string]*rankIndex{}
	for _, m := range measures {
		oldRI[m], _ = servingOf(t, old, m)
	}

	const queriers, perQuerier = 4, 40
	errc := make(chan error, queriers*perQuerier)
	var wg sync.WaitGroup
	wg.Add(queriers)
	for q := 0; q < queriers; q++ {
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perQuerier; i++ {
				resp, err := promoteOK(h, PromoteRequest{Target: int64((q*perQuerier + i) % 100), Measure: measures[i%len(measures)], Size: 3})
				if err != nil {
					errc <- err
					continue
				}
				if want := digests[(resp.Snapshot.Seq-1)%2]; resp.Manifest.Dataset.Digest != want {
					errc <- fmt.Errorf("seq %d answer carries manifest digest %.12s, want %.12s", resp.Snapshot.Seq, resp.Manifest.Dataset.Digest, want)
				}
			}
		}(q)
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st, g := s.state.Load(), hosts[1]
	if st == old {
		t.Fatal("reload did not install a new state")
	}
	for _, m := range measures {
		ri, sl := servingOf(t, st, m)
		if ri == oldRI[m] {
			t.Errorf("%s: new snapshot reuses the old rank index", m)
		}
		spec, _ := measureSpecByName(m)
		want := s.eng.Scores(g, spec.em)
		if len(ri.scores) != len(want) {
			t.Fatalf("%s: %d scores on the new state, host has %d nodes", m, len(ri.scores), len(want))
		}
		for v := range want {
			if math.Float64bits(ri.scores[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: score of %d is %v on the new state, %v on the new host", m, v, ri.scores[v], want[v])
			}
		}
		if d := sl.man.Dataset; d.Digest != digests[1] || d.N != g.N() || d.M != g.M() {
			t.Errorf("%s: manifest dataset %+v does not describe the new host", m, d)
		}
		if again, _ := servingOf(t, old, m); again != oldRI[m] {
			t.Errorf("%s: a request pinned to the old snapshot lost its rank index", m)
		}
	}
	far := s.eng.FarnessInt64(g)
	for v, f := range st.farness() {
		if f != far[v] {
			t.Fatalf("farness of %d is %d on the new state, %d on the new host", v, f, far[v])
		}
	}
}

// TestAnswerCacheHoldsOnlyAnswers: closeness promotions, exact or not,
// leave one cache entry each, an answer; no per-target BFS distances and
// no second entry for an exact outcome.
func TestAnswerCacheHoldsOnlyAnswers(t *testing.T) {
	s := testServer(t, Config{Source: staticSource(testHost(13, 60))})
	h := s.Handler()
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := promoteOK(h, PromoteRequest{Target: int64(i), Measure: "closeness", Size: 3, Exact: i%3 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	s.coal.mu.Lock()
	defer s.coal.mu.Unlock()
	if len(s.coal.cache) != n {
		t.Errorf("answer cache holds %d entries after %d distinct closeness promotions, want %d", len(s.coal.cache), n, n)
	}
	prefix := versionPrefix(s.state.Load().version) + "promote|"
	for k := range s.coal.cache {
		if !strings.HasPrefix(k, prefix) {
			t.Errorf("answer cache holds non-answer key %q", k)
		}
	}
}
