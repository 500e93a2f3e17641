package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
)

// This file is the HTTP/JSON surface of the planner, kept inside the
// package so cmd/hetserve stays a thin flag-parsing shell and the handlers
// are testable with httptest against an in-process Planner.

// QueryRequest is the JSON body of /v1/query and /v1/topk. Every field but N
// is optional. GET requests carry the same fields as URL parameters
// (classes as a comma-separated list).
type QueryRequest struct {
	N             int     `json:"n"`
	TopK          int     `json:"topk,omitempty"`
	Classes       []int   `json:"classes,omitempty"`
	MaxTotalProcs int     `json:"maxTotalProcs,omitempty"`
	MaxBytesPerPE float64 `json:"maxBytesPerPE,omitempty"`
	// TimeoutMs bounds this query's admission wait, overriding the server
	// default (0 keeps the default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// ShardLo/ShardHi restrict the search to grid indices [ShardLo,
	// ShardHi) — the fleet router's scatter unit (see Query.Shard). Both
	// zero means the whole grid.
	ShardLo int64 `json:"shardLo,omitempty"`
	ShardHi int64 `json:"shardHi,omitempty"`
}

// CandidateJSON is one ranked configuration of a query response.
type CandidateJSON struct {
	// Config is the paper's (P1,M1,P2,M2,...) rendering.
	Config string `json:"config"`
	// Use is the structured form, one (PEs, Procs) per class.
	Use []cluster.ClassUse `json:"use"`
	// Tau is the estimated execution time in seconds.
	Tau float64 `json:"tau"`
	// Index is the candidate's global grid index — with Tau, the total
	// order a fleet router merges shard answers on.
	Index int64 `json:"index"`
}

// QueryResponse is the JSON answer of /v1/query and /v1/topk.
type QueryResponse struct {
	Version  int64           `json:"version"`
	N        int             `json:"n"`
	Best     []CandidateJSON `json:"best"`
	Size     int64           `json:"size"`
	Scored   int64           `json:"scored"`
	Pruned   int64           `json:"pruned"`
	CacheHit bool            `json:"cacheHit"`
	Batched  int             `json:"batched"`
}

// RefitRequest is the JSON body of /v1/refit: new measurements to fold into
// the served model, as (class, p, m, n, ta, tc) records. A record matching a
// stored measurement's (class, m, p, n) replaces it (latest wins).
type RefitRequest struct {
	// Samples are model-training measurements.
	Samples []core.StoredSample `json:"samples,omitempty"`
	// Calibration are §4.1 adjustment measurements.
	Calibration []core.StoredSample `json:"calibration,omitempty"`
	// Stage parks the refitted model instead of publishing it: the
	// response carries a stage token for /v1/refit/commit (or abort).
	Stage bool `json:"stage,omitempty"`
}

// RefitStageResponse is the JSON answer of a stage:true refit.
type RefitStageResponse struct {
	// Staged is the stage token; Version the version it was taken against.
	Staged  string            `json:"staged"`
	Version int64             `json:"version"`
	Report  *core.RefitReport `json:"report"`
}

// ReloadRequest is the JSON body of /v1/reload.
type ReloadRequest struct {
	// Path names a model file (modelfit JSON) on the server's filesystem.
	Path string `json:"path"`
	// Stage parks the validated model instead of publishing it: the
	// response carries a stage token for /v1/reload/commit (or abort) —
	// the member half of the fleet's coordinated reload (DESIGN.md §14).
	Stage bool `json:"stage,omitempty"`
}

// ReloadResponse is the JSON answer of /v1/reload and /v1/reload/commit.
type ReloadResponse struct {
	Version int64 `json:"version"`
	// Invalidated counts evaluator-cache entries dropped by the swap.
	Invalidated int `json:"invalidated"`
	// Staged is the stage token of a stage:true request (nothing was
	// published yet; Version is the version the stage was taken against).
	Staged string `json:"staged,omitempty"`
}

// StageRequest is the JSON body of the stage commit/abort endpoints.
type StageRequest struct {
	Token string `json:"token"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the planner's HTTP API:
//
//	POST|GET /v1/query          best configuration for a size under constraints
//	POST|GET /v1/topk           ranked K best (default 5)
//	POST     /v1/reload         load a model file and swap it in without downtime
//	POST     /v1/reload/commit  publish a staged reload (two-phase swap)
//	POST     /v1/reload/abort   drop a staged reload
//	POST     /v1/refit          fold new measurements into the served model
//	POST     /v1/refit/commit   publish a staged refit
//	POST     /v1/refit/abort    drop a staged refit
//	GET      /v1/healthz        liveness + model version + grid size
//	GET      /v1/stats          cache/batch/admission counters
//
// The reload endpoint reads files on the server's host; hetserve is an
// internal planning service and its API assumes a trusted network, like a
// metrics or pprof endpoint. The refit endpoint additionally requires the
// shared secret of Options.RefitAuth in its X-Refit-Auth header and answers
// 403 until one is configured: it is the only endpoint that mutates the
// served model from request bodies, so it stays closed by default even on a
// trusted network.
func (p *Planner) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		p.handleQuery(w, r, 1)
	})
	mux.HandleFunc("/v1/topk", func(w http.ResponseWriter, r *http.Request) {
		p.handleQuery(w, r, 5)
	})
	mux.HandleFunc("/v1/reload", p.handleReload)
	mux.HandleFunc("/v1/reload/commit", p.handleReloadCommit)
	mux.HandleFunc("/v1/reload/abort", p.handleStageAbort(StageReload))
	mux.HandleFunc("/v1/refit", p.handleRefit)
	mux.HandleFunc("/v1/refit/commit", p.handleRefitCommit)
	mux.HandleFunc("/v1/refit/abort", p.handleRefitAbort)
	mux.HandleFunc("/v1/healthz", p.handleHealthz)
	mux.HandleFunc("/v1/stats", p.handleStats)
	return mux
}

func (p *Planner) handleQuery(w http.ResponseWriter, r *http.Request, defaultK int) {
	req, err := decodeQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.TopK <= 0 {
		req.TopK = defaultK
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	var shard *core.IndexRange
	if req.ShardLo != 0 || req.ShardHi != 0 {
		shard = &core.IndexRange{Lo: req.ShardLo, Hi: req.ShardHi}
	}
	res, err := p.Query(ctx, Query{
		N:    req.N,
		TopK: req.TopK,
		Constraints: Constraints{
			Classes:       req.Classes,
			MaxTotalProcs: req.MaxTotalProcs,
			MaxBytesPerPE: req.MaxBytesPerPE,
		},
		Shard: shard,
	})
	if err != nil {
		writeError(w, queryStatus(err), err)
		return
	}
	resp := QueryResponse{
		Version:  res.Version,
		N:        res.N,
		Best:     make([]CandidateJSON, len(res.Best)),
		Size:     res.Size,
		Scored:   res.Scored,
		Pruned:   res.Pruned,
		CacheHit: res.CacheHit,
		Batched:  res.Batched,
	}
	for i, e := range res.Best {
		resp.Best[i] = CandidateJSON{Config: e.Config.String(), Use: e.Config.Use, Tau: e.Tau, Index: res.BestIndex[i]}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (p *Planner) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("reload requires POST"))
		return
	}
	var req ReloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad reload request: %v", err))
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("reload request needs a path"))
		return
	}
	ms, err := core.LoadModelSetFile(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Stage {
		token, err := p.StageReload(ms)
		if err != nil {
			writeError(w, stageStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, ReloadResponse{Version: p.Version(), Staged: token})
		return
	}
	before := p.cache.Len()
	version, err := p.Reload(ms)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Version: version, Invalidated: before - p.cache.Len()})
}

func (p *Planner) handleReloadCommit(w http.ResponseWriter, r *http.Request) {
	token, ok := decodeStageRequest(w, r)
	if !ok {
		return
	}
	res, err := p.CommitStaged(StageReload, token)
	if err != nil {
		writeError(w, stageStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Version: res.Version, Invalidated: res.CacheDropped})
}

// handleStageAbort serves the abort endpoint of one stage kind. Aborting is
// idempotent in effect (nothing was published) but not in answer: a second
// abort of the same token reports 404.
func (p *Planner) handleStageAbort(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := decodeStageRequest(w, r)
		if !ok {
			return
		}
		if err := p.AbortStaged(kind, token); err != nil {
			writeError(w, stageStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"aborted": true})
	}
}

// decodeStageRequest parses the POST body of a commit/abort endpoint,
// answering the error itself when the request is unusable.
func decodeStageRequest(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("stage commit/abort requires POST"))
		return "", false
	}
	var req StageRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad stage request: %v", err))
		return "", false
	}
	if req.Token == "" {
		writeError(w, http.StatusBadRequest, errors.New("stage request needs a token"))
		return "", false
	}
	return req.Token, true
}

// stageStatus maps stage-protocol errors onto HTTP statuses: a pending stage
// blocks new stages (409), a missing or consumed token is 404, a base-version
// conflict at commit time is 409 (the stage is gone; re-stage and retry).
func stageStatus(err error) int {
	switch {
	case errors.Is(err, ErrStagePending):
		return http.StatusConflict
	case errors.Is(err, ErrNoStage):
		return http.StatusNotFound
	default:
		return http.StatusConflict
	}
}

// RefitAuthHeader carries the /v1/refit shared secret.
const RefitAuthHeader = "X-Refit-Auth"

func (p *Planner) handleRefit(w http.ResponseWriter, r *http.Request) {
	if !p.refitAuthorized(w, r) {
		return
	}
	var req RefitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad refit request: %v", err))
		return
	}
	var delta core.SampleDelta
	for _, s := range req.Samples {
		delta.Samples = append(delta.Samples, s.Sample())
	}
	for _, s := range req.Calibration {
		delta.Calibration = append(delta.Calibration, s.Sample())
	}
	if req.Stage {
		token, report, err := p.StageRefit(delta)
		if err != nil {
			writeError(w, stageStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, RefitStageResponse{Staged: token, Version: p.Version(), Report: report})
		return
	}
	res, err := p.Refit(delta)
	if err != nil {
		writeError(w, queryStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (p *Planner) handleRefitCommit(w http.ResponseWriter, r *http.Request) {
	if !p.refitAuthorized(w, r) {
		return
	}
	token, ok := decodeStageRequest(w, r)
	if !ok {
		return
	}
	res, err := p.CommitStaged(StageRefit, token)
	if err != nil {
		writeError(w, stageStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (p *Planner) handleRefitAbort(w http.ResponseWriter, r *http.Request) {
	if !p.refitAuthorized(w, r) {
		return
	}
	p.handleStageAbort(StageRefit)(w, r)
}

// refitAuthorized enforces the refit endpoints' shared-secret gate, writing
// the refusal itself. The stage commit/abort routes sit behind the same gate
// as /v1/refit: committing a staged refit mutates the served model just as
// the direct call would.
func (p *Planner) refitAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("refit requires POST"))
		return false
	}
	if p.refitAuth == "" {
		writeError(w, http.StatusForbidden, errors.New("refit disabled: start hetserve with -refit-auth"))
		return false
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(RefitAuthHeader)), []byte(p.refitAuth)) != 1 {
		writeError(w, http.StatusForbidden, fmt.Errorf("bad or missing %s header", RefitAuthHeader))
		return false
	}
	return true
}

func (p *Planner) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"version":  p.Version(),
		"gridSize": p.grid.Size(),
	})
}

func (p *Planner) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, p.Stats())
}

// maxTopK is the largest K a request may ask for. Selection heaps, batch
// results and the router's merge are all sized by K, so the wire may not
// carry an unbounded one; a request above the cap is a 400 before admission,
// on a member and (through DecodeQueryParams) on the router alike.
const maxTopK = 4096

// DecodeQueryParams parses a query request in either member encoding (JSON
// body on POST, URL parameters on GET) — exported so the fleet router accepts
// the exact member dialect, limits included, without duplicating it.
func DecodeQueryParams(r *http.Request) (QueryRequest, error) {
	return decodeQueryRequest(r)
}

// decodeQueryRequest accepts a JSON body (POST) or URL parameters (GET):
// n, topk, classes=0,1, maxTotalProcs, maxBytesPerPE, timeoutMs.
func decodeQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad query request: %v", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		var err error
		if req.N, err = intParam(q.Get("n"), 0); err != nil {
			return req, fmt.Errorf("bad n: %v", err)
		}
		if req.TopK, err = intParam(q.Get("topk"), 0); err != nil {
			return req, fmt.Errorf("bad topk: %v", err)
		}
		if req.MaxTotalProcs, err = intParam(q.Get("maxTotalProcs"), 0); err != nil {
			return req, fmt.Errorf("bad maxTotalProcs: %v", err)
		}
		if req.TimeoutMs, err = intParam(q.Get("timeoutMs"), 0); err != nil {
			return req, fmt.Errorf("bad timeoutMs: %v", err)
		}
		if req.ShardLo, err = int64Param(q.Get("shardLo")); err != nil {
			return req, fmt.Errorf("bad shardLo: %v", err)
		}
		if req.ShardHi, err = int64Param(q.Get("shardHi")); err != nil {
			return req, fmt.Errorf("bad shardHi: %v", err)
		}
		if s := q.Get("maxBytesPerPE"); s != "" {
			if req.MaxBytesPerPE, err = strconv.ParseFloat(s, 64); err != nil {
				return req, fmt.Errorf("bad maxBytesPerPE: %v", err)
			}
		}
		if s := q.Get("classes"); s != "" {
			for _, part := range strings.Split(s, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return req, fmt.Errorf("bad classes: %v", err)
				}
				req.Classes = append(req.Classes, v)
			}
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if req.N <= 0 {
		return req, fmt.Errorf("problem size n=%d, want > 0", req.N)
	}
	if req.TopK > maxTopK {
		return req, fmt.Errorf("topk=%d, want <= %d", req.TopK, maxTopK)
	}
	return req, nil
}

// queryStatus maps planner errors onto HTTP statuses: overload and expired
// deadlines are the retryable outcomes admission control is designed to
// produce, an unsatisfiable query (no scorable candidate) is the client's.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNoModel):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func int64Param(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone, nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
