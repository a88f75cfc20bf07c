package promod

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"promonet/internal/core"
	"promonet/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/promote   promotion query (admission-gated, coalesced)
//	GET  /v1/scores    centrality scores/ranks (admission-gated)
//	GET  /v1/manifest  current snapshot's validated manifest
//	GET  /healthz      liveness + snapshot description
//	POST /admin/reload graceful snapshot swap from the configured source
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/scores", s.handleScores)
	mux.HandleFunc("/v1/manifest", s.handleManifest)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/admin/reload", s.handleReload)
	return mux
}

// maxBodyBytes bounds a promote request body; the API has no field that
// legitimately needs more than a kilobyte.
const maxBodyBytes = 1 << 20

// tenantOf extracts the request's tenant identity for per-tenant
// budgets.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Promod-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// writeJSON renders v with the given status. Encode errors mean the
// client hung up mid-response; there is nobody left to tell.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// shedResponse renders the 429 + Retry-After load-shed answer.
func shedResponse(w http.ResponseWriter, retry time.Duration) {
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "overloaded, retry later"})
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.mRequests.Inc()
	_, sp := obs.Start(r.Context(), spanPromote)
	defer sp.End()
	release, retry, ok := s.adm.admit(tenantOf(r))
	if !ok {
		shedResponse(w, retry)
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.hLatency.Observe(time.Since(start)) }()

	var req PromoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Pin the snapshot with one atomic load: everything below computes
	// against st even if a reload swaps the installed pointer mid-flight.
	st := s.state.Load()
	resp, status, err := s.promote(st, &req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	sp.Str("measure", resp.Measure)
	sp.Int("size", resp.Size)
	writeJSON(w, http.StatusOK, resp)
}

// promote answers one promotion query on the pinned snapshot. The whole
// response is coalesced per (version, measure, target, size, type,
// exact), so a burst of identical queries costs one computation; the
// per-snapshot state it reads lives on st, not in the answer cache.
func (s *Server) promote(st *snapshotState, req *PromoteRequest) (*PromoteResponse, int, error) {
	spec, err := measureSpecByName(req.Measure)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	t, ok := st.nodeOf(req.Target)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("promod: no node labeled %d in snapshot seq %d", req.Target, st.seq)
	}
	stype := spec.cm.Strategy()
	if req.Strategy != "" {
		if stype, err = strategyTypeByName(req.Strategy); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	var p int
	switch {
	case req.Size > 0 && req.Budget > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("promod: size and budget are mutually exclusive")
	case req.Size > 0:
		p = req.Size
	case req.Budget > 0:
		if p = core.MaxSizeWithinBudget(stype, req.Budget); p < 1 {
			return nil, http.StatusUnprocessableEntity,
				fmt.Errorf("promod: budget %d affords no %s promotion", req.Budget, stype)
		}
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("promod: one of size or budget is required")
	}
	maxN := s.cfg.ExactMaxN
	if maxN <= 0 {
		maxN = DefaultExactMaxN
	}
	if req.Exact && st.n > maxN {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("promod: exact rescoring refused on %d-node host (limit %d)", st.n, maxN)
	}

	strat := core.Strategy{Target: t, Size: p, Type: stype}
	key := fmt.Sprintf("%spromote|%s|%d|%d|%d|%t", versionPrefix(st.version), spec.name, t, p, int(stype), req.Exact)
	v, err := s.coal.do(key, func() (any, error) {
		return s.buildPromoteResponse(st, spec, strat, req.Target, req.Exact)
	})
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return v.(*PromoteResponse), http.StatusOK, nil
}

// buildPromoteResponse is the cache-miss path of promote.
func (s *Server) buildPromoteResponse(st *snapshotState, spec measureSpec, strat core.Strategy, label int64, exact bool) (*PromoteResponse, error) {
	ri, man, err := st.serving(spec)
	if err != nil {
		return nil, err
	}
	pr := predictWith(st, spec, strat, ri)
	resp := &PromoteResponse{
		Target:         label,
		Measure:        spec.name,
		Principle:      spec.cm.Principle().String(),
		Strategy:       strat.Type.String(),
		Size:           strat.Size,
		EdgeCost:       strat.NumEdges(),
		GuaranteedSize: pr.guaranteedSize,
		ScoreBefore:    ri.scores[strat.Target],
		RankBefore:     ri.rankOf(strat.Target),
		PredictedRank:  pr.predictedRank,
		PredictedDelta: pr.delta,
		Mode:           pr.mode,
		Snapshot:       st.info(),
		Manifest:       man,
	}
	if !math.IsNaN(pr.predictedScore) {
		ps := pr.predictedScore
		resp.PredictedScore = &ps
	}
	if exact {
		eo, err := s.exactOutcome(st, spec, strat, ri)
		if err != nil {
			return nil, err
		}
		resp.Exact = eo
		resp.Mode = ModeExact
		resp.PredictedRank = eo.RankAfter
		resp.PredictedDelta = eo.DeltaRank
		sa := eo.ScoreAfter
		resp.PredictedScore = &sa
	}
	return resp, nil
}

func (s *Server) handleScores(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mRequests.Inc()
	_, sp := obs.Start(r.Context(), spanScores)
	defer sp.End()
	release, retry, ok := s.adm.admit(tenantOf(r))
	if !ok {
		shedResponse(w, retry)
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.hLatency.Observe(time.Since(start)) }()

	q := r.URL.Query()
	spec, err := measureSpecByName(q.Get("measure"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := s.state.Load()
	ri, _, err := st.serving(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := &ScoresResponse{Measure: spec.name, Snapshot: st.info()}
	if raw := q.Get("labels"); raw != "" {
		for _, fld := range strings.Split(raw, ",") {
			label, err := strconv.ParseInt(strings.TrimSpace(fld), 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad label "+fld)
				return
			}
			id, ok := st.nodeOf(label)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Sprintf("promod: no node labeled %d", label))
				return
			}
			resp.Nodes = append(resp.Nodes, NodeScore{Label: label, Score: ri.scores[id], Rank: ri.rankOf(id)})
			if len(resp.Nodes) > 1000 {
				writeError(w, http.StatusBadRequest, "too many labels (max 1000)")
				return
			}
		}
	}
	topK := 0
	if raw := q.Get("top"); raw != "" {
		if topK, err = strconv.Atoi(raw); err != nil || topK < 0 {
			writeError(w, http.StatusBadRequest, "bad top count")
			return
		}
	} else if resp.Nodes == nil {
		topK = 10 // bare GET /v1/scores?measure=… lists the leaderboard
	}
	if topK > 1000 {
		topK = 1000
	}
	if topK > len(ri.order) {
		topK = len(ri.order)
	}
	for i := 0; i < topK; i++ {
		id := int(ri.order[i])
		resp.Top = append(resp.Top, NodeScore{Label: st.labelOf(id), Score: ri.scores[id], Rank: ri.rankOf(id)})
	}
	sp.Str("measure", spec.name)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.state.Load()
	data, err := st.manifest("").Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Snapshot: s.Snapshot()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	info, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Snapshot: info})
}
