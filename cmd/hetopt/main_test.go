package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetmodel/internal/core"
)

// TestSearchGolden pins the one search route's output on the committed
// serving fixture: the default run, a ranked run and a constrained run. The
// winner lines are what scripts/serve_smoke.sh and scripts/router_smoke.sh
// compare hetserve's and hetrouter's answers against.
func TestSearchGolden(t *testing.T) {
	models, err := core.LoadModelSetFile(filepath.Join("..", "hetserve", "testdata", "model_nl.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
		want string
	}{
		{"default", core.SearchOptions{TopK: 1}, `streaming search: 62 candidates, 5 scored, 57 pruned (91.9% pruned)
N=9600 estimated best configuration (1,4,8,1) (P1,M1,P2,M2), tau = 339.7 s
`},
		{"topk5", core.SearchOptions{TopK: 5}, `streaming search: 62 candidates, 10 scored, 52 pruned (83.9% pruned)
N=9600 top 5 configurations (P1,M1,P2,M2):
   1. (1,4,8,1)  tau = 339.7 s
   2. (1,3,8,1)  tau = 343.5 s
   3. (1,4,7,1)  tau = 343.5 s
   4. (1,2,8,1)  tau = 350.6 s
   5. (1,3,7,1)  tau = 350.6 s
`},
		{"classes0-maxprocs8", core.SearchOptions{TopK: 1, Constraints: &core.Constraints{Classes: []int{0}, MaxTotalProcs: 8}},
			`streaming search: 62 candidates, 5 scored, 57 pruned (91.9% pruned)
N=9600 estimated best configuration (1,1,0,0) (P1,M1,P2,M2), tau = 463.5 s
`},
	} {
		var out bytes.Buffer
		tc.opts.Workers = 1
		best, tau, err := search(&out, models, 9600, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.String() != tc.want {
			t.Errorf("%s: output\n%s\nwant\n%s", tc.name, out.String(), tc.want)
		}
		if !strings.Contains(tc.want, best.String()) || tau <= 0 {
			t.Errorf("%s: returned winner %s (tau %v) is not in the printed output", tc.name, best, tau)
		}
	}
}

// TestLoadModelSetRejectsEmptyModel covers the fixture that bit us: a file
// that unmarshals cleanly into a ModelSet with no models must be rejected
// instead of being handed to the optimizer.
func TestLoadModelSetRejectsEmptyModel(t *testing.T) {
	_, err := core.LoadModelSetFile(filepath.Join("testdata", "empty_model.json"))
	if err == nil {
		t.Fatal("LoadModelSetFile accepted an empty model file")
	}
	if !strings.Contains(err.Error(), "invalid model file") {
		t.Errorf("error %q does not identify the file as invalid", err)
	}
}

func TestLoadModelSetRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModelSetFile(path); err == nil {
		t.Fatal("LoadModelSetFile accepted malformed JSON")
	}
	if _, err := core.LoadModelSetFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadModelSetFile accepted a missing file")
	}
}

// TestLoadModelSetRoundTrip accepts a genuinely fitted model file.
func TestLoadModelSetRoundTrip(t *testing.T) {
	samples := syntheticSamples()
	ms, err := core.Build(1, samples)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModelSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Classes != ms.Classes || len(loaded.NT) != len(ms.NT) {
		t.Errorf("round trip lost models: got %d classes, %d N-T bins", loaded.Classes, len(loaded.NT))
	}
}

// syntheticSamples builds one fittable single-PE bin (four sizes, the N-T
// minimum) with exactly cubic Ta and quadratic Tc.
func syntheticSamples() []core.Sample {
	var out []core.Sample
	for _, n := range []int{400, 800, 1200, 1600} {
		fn := float64(n)
		out = append(out, core.Sample{
			N: n, P: 1, M: 1, Class: 0,
			Ta: 1e-9*fn*fn*fn + 0.5,
			Tc: 1e-7*fn*fn + 0.1,
		})
	}
	return out
}
