package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetmodel/internal/core"
)

func newTestServer(t *testing.T) (*httptest.Server, *Planner, *core.ModelSet) {
	t.Helper()
	p, ms := newTestPlanner(t, Options{})
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	return srv, p, ms
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
}

// TestHTTPQueryParity: both verbs and both endpoints answer exactly what the
// direct search does.
func TestHTTPQueryParity(t *testing.T) {
	srv, p, ms := newTestServer(t)
	want, err := ms.OptimizeSpace(p.Space(), 2400, core.SearchOptions{Workers: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}

	var got QueryResponse
	postJSON(t, srv.URL+"/v1/topk", QueryRequest{N: 2400, TopK: 3}, http.StatusOK, &got)
	if got.Version != 1 || got.N != 2400 || len(got.Best) != 3 {
		t.Fatalf("response header wrong: %+v", got)
	}
	for i, c := range got.Best {
		if c.Tau != want.Best[i].Tau || c.Config != want.Best[i].Config.String() {
			t.Errorf("candidate %d: %s tau=%v, want %s tau=%v",
				i, c.Config, c.Tau, want.Best[i].Config, want.Best[i].Tau)
		}
	}

	var viaGet QueryResponse
	getJSON(t, srv.URL+"/v1/query?n=2400", http.StatusOK, &viaGet)
	if len(viaGet.Best) != 1 || viaGet.Best[0].Tau != want.Best[0].Tau {
		t.Errorf("GET query answered %+v, want tau %v", viaGet.Best, want.Best[0].Tau)
	}
	if !viaGet.CacheHit {
		t.Error("second query at the same size did not hit the evaluator cache")
	}

	// Constrained GET matches the brute-force ranking of the admissible set.
	wantCons, _ := bruteForce(t, ms, p.Space(), 1600, 2, Constraints{Classes: []int{0}, MaxTotalProcs: 6})
	var gotCons QueryResponse
	getJSON(t, srv.URL+"/v1/topk?n=1600&topk=2&classes=0&maxTotalProcs=6", http.StatusOK, &gotCons)
	if len(gotCons.Best) != len(wantCons) {
		t.Fatalf("constrained GET answered %d candidates, want %d", len(gotCons.Best), len(wantCons))
	}
	for i, c := range gotCons.Best {
		if c.Tau != wantCons[i].Tau || c.Config != wantCons[i].Config.String() {
			t.Errorf("constrained candidate %d: %s tau=%v, want %s tau=%v",
				i, c.Config, c.Tau, wantCons[i].Config, wantCons[i].Tau)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _, _ := newTestServer(t)
	var errResp errorResponse
	getJSON(t, srv.URL+"/v1/query", http.StatusBadRequest, &errResp)
	if errResp.Error == "" {
		t.Error("missing n: empty error message")
	}
	getJSON(t, srv.URL+"/v1/query?n=abc", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/query?n=2400&classes=x", http.StatusBadRequest, nil)
	postJSON(t, srv.URL+"/v1/query", QueryRequest{N: 2400, Classes: []int{9}}, http.StatusBadRequest, nil)
	// A K beyond the cap is refused before admission, over GET and POST —
	// an unbounded K used to size the selection heaps directly and took the
	// process down with an uncatchable out-of-memory — and the server keeps
	// answering.
	getJSON(t, srv.URL+"/v1/topk?n=1600&topk=1099511627776", http.StatusBadRequest, &errResp)
	if !strings.Contains(errResp.Error, "topk") {
		t.Errorf("oversized topk: error %q does not name the parameter", errResp.Error)
	}
	postJSON(t, srv.URL+"/v1/topk", QueryRequest{N: 1600, TopK: maxTopK + 1}, http.StatusBadRequest, nil)
	var atCap QueryResponse
	getJSON(t, srv.URL+fmt.Sprintf("/v1/topk?n=1600&topk=%d", maxTopK), http.StatusOK, &atCap)
	if int64(len(atCap.Best)) != atCap.Size {
		t.Errorf("topk at the cap returned %d of %d candidates", len(atCap.Best), atCap.Size)
	}
	// Unsatisfiable constraints: well-formed but no scorable candidate.
	postJSON(t, srv.URL+"/v1/query", QueryRequest{N: 2400, MaxBytesPerPE: 1}, http.StatusUnprocessableEntity, nil)
	// Reload needs POST and a path.
	resp, err := http.Get(srv.URL + "/v1/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: status %d, want 405", resp.StatusCode)
	}
	postJSON(t, srv.URL+"/v1/reload", ReloadRequest{}, http.StatusBadRequest, nil)
}

// TestHTTPReload exercises the zero-downtime swap end to end: write a model
// file, reload it, verify the version bump, cache invalidation accounting,
// and that a bad file leaves the old model serving.
func TestHTTPReload(t *testing.T) {
	srv, p, ms := newTestServer(t)

	// Warm the cache so the reload has something to invalidate.
	getJSON(t, srv.URL+"/v1/query?n=2400", http.StatusOK, nil)
	getJSON(t, srv.URL+"/v1/query?n=1600", http.StatusOK, nil)

	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var rel ReloadResponse
	postJSON(t, srv.URL+"/v1/reload", ReloadRequest{Path: path}, http.StatusOK, &rel)
	if rel.Version != 2 {
		t.Errorf("reload produced version %d, want 2", rel.Version)
	}
	if rel.Invalidated != 2 {
		t.Errorf("reload invalidated %d entries, want 2", rel.Invalidated)
	}

	var health struct {
		Status  string `json:"status"`
		Version int64  `json:"version"`
	}
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Version != 2 {
		t.Errorf("healthz %+v, want ok/2", health)
	}

	// Corrupt file: rejected, still serving version 2.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"classes":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+"/v1/reload", ReloadRequest{Path: bad}, http.StatusBadRequest, nil)
	if p.Version() != 2 {
		t.Errorf("failed reload moved version to %d", p.Version())
	}
	var after QueryResponse
	getJSON(t, srv.URL+"/v1/query?n=2400", http.StatusOK, &after)
	if after.Version != 2 {
		t.Errorf("query answered by version %d after failed reload, want 2", after.Version)
	}
}

func TestHTTPStats(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/query?n=%d", srv.URL, 1600), http.StatusOK, nil)
	}
	var s Stats
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &s)
	if s.Queries != 3 || s.Compiles != 1 || s.CacheHits != 2 || s.Version != 1 {
		t.Errorf("stats %+v, want 3 queries, 1 compile, 2 hits, version 1", s)
	}
}

// TestHTTPTimeout: a request-level timeout on a saturated planner is
// rejected with 504 rather than queueing forever.
func TestHTTPTimeout(t *testing.T) {
	p, _ := newTestPlanner(t, Options{MaxInFlight: 1, MaxQueue: 4})
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	if err := p.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.adm.release()
	postJSON(t, srv.URL+"/v1/query", QueryRequest{N: 1600, TimeoutMs: 30}, http.StatusGatewayTimeout, nil)
}
