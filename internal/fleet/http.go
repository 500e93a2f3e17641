package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hetmodel/internal/serve"
)

// The router speaks the same HTTP/JSON dialect as its members, so clients
// (hetload included) point at a router or a single planner without caring
// which: /v1/query and /v1/topk answer identically (the router adds
// fleet-bookkeeping fields), /v1/reload and /v1/refit become coordinated
// fleet-wide swaps, /v1/stats nests per-member snapshots.

// Handler returns the router's HTTP API:
//
//	POST|GET /v1/query   scatter (or affinity-route) a query over the fleet
//	POST|GET /v1/topk    ranked K best, merged across members
//	POST     /v1/reload  coordinated two-phase reload on every member
//	POST     /v1/refit   coordinated two-phase refit on every member
//	GET      /v1/healthz router liveness + per-member health
//	GET      /v1/stats   router counters + per-member stats snapshots
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, req *http.Request) {
		r.handleQuery(w, req, 1)
	})
	mux.HandleFunc("/v1/topk", func(w http.ResponseWriter, req *http.Request) {
		r.handleQuery(w, req, 5)
	})
	mux.HandleFunc("/v1/reload", r.handleReload)
	mux.HandleFunc("/v1/refit", r.handleRefit)
	mux.HandleFunc("/v1/healthz", r.handleHealthz)
	mux.HandleFunc("/v1/stats", r.handleStats)
	return mux
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request, defaultK int) {
	// The member's own decoder (JSON body on POST, URL parameters on GET),
	// so router and members cannot drift apart on parameter names or limits.
	q, err := serve.DecodeQueryParams(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if q.TopK <= 0 {
		q.TopK = defaultK
	}
	ctx := req.Context()
	if q.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := r.Query(ctx, q)
	if err != nil {
		writeError(w, fleetStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("reload requires POST"))
		return
	}
	var body serve.ReloadRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad reload request: %v", err))
		return
	}
	if body.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("reload request needs a path"))
		return
	}
	res, err := r.Reload(req.Context(), body.Path)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (r *Router) handleRefit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("refit requires POST"))
		return
	}
	if r.opts.RefitAuth == "" {
		writeError(w, http.StatusForbidden, errors.New("fleet refit disabled: start hetrouter with -refit-auth"))
		return
	}
	var body serve.RefitRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad refit request: %v", err))
		return
	}
	res, err := r.Refit(req.Context(), body)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	n := r.CheckHealth(req.Context())
	members := make([]map[string]any, len(r.members))
	for i, m := range r.members {
		row := map[string]any{
			"url":     m.url,
			"healthy": m.healthy.Load(),
			"version": m.version.Load(),
		}
		if e := m.lastError(); e != "" {
			row["error"] = e
		}
		members[i] = row
	}
	status := "ok"
	code := http.StatusOK
	if n == 0 {
		status = "no healthy members"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"gridSize": r.grid.Size(),
		"healthy":  n,
		"members":  members,
	})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats(req.Context()))
}

// fleetStatus maps fleet errors onto HTTP statuses: no members is an
// upstream outage, context expiry is a timeout, anything else from the
// member side arrives pre-classified in the error string (the router does
// not re-classify member 4xx).
func fleetStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoMembers):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone, nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
