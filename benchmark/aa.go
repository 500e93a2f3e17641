package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// manifestFile is the part of BENCHMARK.json the benchmark reads back.
type manifestFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifestFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &m, nil
}

// runAA runs sets untraced sets of every workload back to back — the same
// code against itself, a different seed per set, as the driver does — and
// prints per (workload, metric) the median, the quartiles and two spreads
// beside the metric's bound: the interquartile one the driver computes, and
// the full range. It fails when any two sets disagree by more than the
// bound. Without -seconds a run is as long as BENCHMARK.json says, so that
// the spreads are those of the runs the bounds are applied to.
func runAA(sets int, seed int64, seconds float64, manifestPath string, stdout, stderr io.Writer) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa needs the bounds: %v\n", err)
		return 1
	}
	if seconds == 0 {
		seconds = m.RunSeconds
	}
	values := make(map[string][]float64) // "workload metric" -> one value per set
	for set := 0; set < sets; set++ {
		for _, w := range workloadNames {
			res, err := runChild(w, seed+int64(set), seconds, 0, ".bench_out", nil, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d, %s: %v\n", set, w, err)
				return 1
			}
			for _, e := range m.EndToEnd {
				values[w+" "+e.Name] = append(values[w+" "+e.Name], res.Metrics[e.Name].Value)
			}
			fmt.Fprintf(stdout, "set %d %s done\n", set, w)
		}
	}
	fmt.Fprintf(stdout, "\nA/A over %d sets of %g s: nproc %d, %s, %d clients\n", sets, seconds, runtime.NumCPU(), runtime.Version(), clientCount())
	fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %14s %8s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "iqr", "range", "bound")
	code := 0
	for _, w := range workloadNames {
		for _, e := range m.EndToEnd {
			vs := append([]float64(nil), values[w+" "+e.Name]...)
			sort.Float64s(vs)
			med := median(vs)
			q1, q3 := quantile(vs, 0.25), quantile(vs, 0.75)
			iqr, full := (q3-q1)/med, (vs[len(vs)-1]-vs[0])/med
			verdict := ""
			if full > e.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-12s %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%%%s\n",
				w, e.Name, q1, med, q3, 100*iqr, 100*full, 100*e.Bound, verdict)
		}
	}
	return code
}
