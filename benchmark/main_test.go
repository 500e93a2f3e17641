package main

import (
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// workloads re-execute os.Executable() in a -role, and that is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-role" || os.Args[1] == "-workload") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload untraced and traced for 0.3 s, children
// included, and checks that exactly the workloads and metrics BENCHMARK.json
// declares are emitted, each with a well-formed name and the declared unit,
// that every per-layer metric is measured by some workload, that every
// answer verified, and that no child process is left.
func TestSmoke(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	units := make(map[string]string)
	var e2e, layers []string
	for _, e := range m.EndToEnd {
		e2e = append(e2e, e.Name)
		units[e.Name] = e.Unit
	}
	for _, e := range m.PerLayer {
		layers = append(layers, e.Name)
		units[e.Name] = e.Unit
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for _, l := range perLayer {
		if l.layer == "" || l.moves == "" {
			t.Errorf("layer %q (%v) does not say what it should move", l.layer, l.metrics)
		}
	}

	sampled := make(map[string]bool) // per-layer metrics some workload measured
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 1004, seconds: 0.3, trace: traced, outDir: t.TempDir()}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if traced {
				want = layers
			}
			if got := names(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", w, traced, got, want)
			}
			for _, m := range res.Metrics {
				if m.N > 0 {
					sampled[m.Name] = true
				} else if m.Value != absent || !traced {
					t.Errorf("%s traced=%v: metric %s has no samples but reads %v", w, traced, m.Name, m.Value)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is malformed", w, m.Name)
				}
				if m.Unit == "" || m.Unit != units[m.Name] {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", w, m.Name, m.Unit, units[m.Name])
				}
			}
			if _, err := res.jsonLine(); err != nil {
				t.Errorf("%s: result line: %v", w, err)
			}
		}
	}

	for _, name := range layers {
		if !sampled[name] {
			t.Errorf("no workload measured %s", name)
		}
	}

	children.mu.Lock()
	defer children.mu.Unlock()
	if len(children.running) != 0 {
		t.Errorf("%d children still registered as running", len(children.running))
	}
	if len(children.pids) == 0 {
		t.Error("no child process was started: the served workloads did not run as processes")
	}
	for _, pid := range children.pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("child %d outlived its workload (kill -0: %v)", pid, err)
		}
	}
}

// TestSeedDiscipline: the seed drives every generated request sequence —
// equal seeds give equal hashes, a different seed a different hash.
func TestSeedDiscipline(t *testing.T) {
	for _, w := range sortedKeys(genSpecs) {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 hashed to %016x and %016x", w, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 both hashed to %016x", w, a.hash)
		}
	}
}

// TestScanAnswer pins the response scanner against the server's encoding.
func TestScanAnswer(t *testing.T) {
	body := []byte("{\n  \"version\": 3,\n  \"n\": 800,\n  \"best\": [\n    {\"config\": \"(1,2)\", \"use\": [{\"PEs\":1,\"Procs\":2}], \"tau\": 0.25, \"index\": 17},\n" +
		"    {\"config\": \"(2,2)\", \"tau\":1.5e-3,\"index\":1291467968}\n  ],\n  \"size\": 9\n}")
	var a answer
	if !scanAnswer(body, &a) {
		t.Fatal("scanAnswer rejected a well-formed response")
	}
	if a.version != 3 || len(a.ranked) != 2 || a.ranked[0].Score != 0.25 || a.ranked[0].Index != 17 ||
		a.ranked[1].Score != 1.5e-3 || a.ranked[1].Index != 1291467968 {
		t.Errorf("scanAnswer read %+v", a)
	}
	for _, bad := range []string{`{"error": "overloaded"}`, `{"version": 1, "best": []}`, `{"version": 1, "best": [{"tau": 1}]}`} {
		if scanAnswer([]byte(bad), &a) {
			t.Errorf("scanAnswer accepted %s", bad)
		}
	}
}
