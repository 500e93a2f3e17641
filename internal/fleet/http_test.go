package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetmodel/internal/serve"
)

// rawBest fetches url and returns the raw bytes of the response's "best"
// field — no re-encoding on the comparison path.
func rawBest(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	var out struct {
		Best json.RawMessage `json:"best"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out.Best
}

// TestHTTPByteParity: the router's /v1/topk "best" array is byte-identical
// to a lone member's — the serialized form, not just the decoded values.
func TestHTTPByteParity(t *testing.T) {
	f := newTestFleet(t, 3, Options{ShardMin: -1})
	router := httptest.NewServer(f.router.Handler())
	t.Cleanup(router.Close)
	single := httptest.NewServer(f.ref.Handler())
	t.Cleanup(single.Close)

	for _, q := range []string{"n=2400&topk=7", "n=1600", "n=3200&topk=62", "n=2400&topk=4&classes=1"} {
		got := rawBest(t, router.URL+"/v1/topk?"+q, http.StatusOK)
		want := rawBest(t, single.URL+"/v1/topk?"+q, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Errorf("?%s: router bytes diverge from single planner\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestHTTPRouterSurface covers the non-query routes: healthz reflects
// membership, stats nests member rows, reload coordinates, refit is
// auth-gated, shard parameters are refused.
func TestHTTPRouterSurface(t *testing.T) {
	f := newTestFleet(t, 2, Options{ShardMin: -1})
	router := httptest.NewServer(f.router.Handler())
	t.Cleanup(router.Close)

	var hz struct {
		Status   string `json:"status"`
		GridSize int64  `json:"gridSize"`
		Healthy  int    `json:"healthy"`
	}
	getInto(t, router.URL+"/v1/healthz", http.StatusOK, &hz)
	if hz.Status != "ok" || hz.Healthy != 2 || hz.GridSize != f.router.Grid().Size() {
		t.Errorf("healthz = %+v", hz)
	}

	var st Stats
	getInto(t, router.URL+"/v1/stats", http.StatusOK, &st)
	if len(st.Members) != 2 {
		t.Errorf("stats rows %d, want 2", len(st.Members))
	}

	// Shard parameters belong to the router's own member traffic.
	resp, err := http.Get(router.URL + "/v1/query?n=2400&shardLo=0&shardHi=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("router accepted an externally sharded query")
	}

	// A K beyond the members' cap is refused at the router, over GET and
	// POST, before any scatter — so no member sees (and is marked unhealthy
	// for refusing) the request.
	resp, err = http.Get(router.URL + "/v1/topk?n=2400&topk=1099511627776")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET oversized topk: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(router.URL+"/v1/topk", "application/json", strings.NewReader(`{"n":2400,"topk":1099511627776}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST oversized topk: status %d, want 400", resp.StatusCode)
	}
	getInto(t, router.URL+"/v1/healthz", http.StatusOK, &hz)
	if hz.Healthy != 2 {
		t.Errorf("oversized topk cost the fleet members: healthy = %d, want 2", hz.Healthy)
	}

	// Refit without -refit-auth is closed.
	resp, err = http.Post(router.URL+"/v1/refit", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("refit without auth: status %d, want 403", resp.StatusCode)
	}

	// Dead members flip healthz away from ok.
	f.servers[0].Close()
	f.servers[1].Close()
	respHz, err := http.Get(router.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	respHz.Body.Close()
	if respHz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with dead fleet: status %d, want 503", respHz.StatusCode)
	}
}

func getInto(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestQueryContext: a cancelled context surfaces as a timeout-class error
// instead of hanging the fan-out.
func TestQueryContext(t *testing.T) {
	f := newTestFleet(t, 2, Options{ShardMin: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.router.Query(ctx, serve.QueryRequest{N: 2400}); err == nil {
		t.Fatal("query with cancelled context succeeded")
	}
}
