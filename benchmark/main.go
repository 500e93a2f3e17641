// Command benchmark is the repository's benchmark: six workloads, from the
// paper's own pipeline to a router scattering over a fleet of planner
// processes, each verified answer by answer, with the end-to-end metrics of
// an untraced run and the per-layer metrics of a traced one. BENCHMARK.json
// at the repository root declares the workloads and metrics; README.md in
// this directory says why each exists.
//
//	go run -C benchmark . -workload serve_hot -seed 7 -seconds 10 -trace 0
//	go run -C benchmark .            # all workloads at their default times, untraced then traced (3 s)
//	go run -C benchmark . -aa 5      # five untraced sets and their spread
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) >= 2 && args[0] == "-role" {
		return roleMain(args[1], args[2:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1004, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "measured time per workload; 0: each workload's default (for -aa, BENCHMARK.json's run_seconds)")
		trace    = fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default: 0 for one workload, both for all")
		aa       = fs.Int("aa", 0, "run this many untraced sets of all workloads and compare them")
		out      = fs.String("out", ".bench_out", "directory for the span files")
		manifest = fs.String("manifest", "../BENCHMARK.json", "BENCHMARK.json, for the bounds -aa compares against")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-aa sets]")
		return 2
	}

	// Children end when their stdin closes, so they cannot outlive this
	// process; killing them on a signal only makes that prompt.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	switch {
	case *aa > 0:
		return runAA(*aa, *seed, *seconds, *manifest, stdout, stderr)
	case *workload == "all":
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	if cfg.seconds == 0 {
		cfg.seconds = defaultSeconds[cfg.workload]
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := printResult(stdout, cfg.workload, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed\n", cfg.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// tracedSeconds caps the measured time of the traced runs of a full run:
// they are for attribution, never for end-to-end numbers.
const tracedSeconds = 3

// runAll runs every workload in a process of its own, as the driver does,
// and passes the output through.
func runAll(seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	code := 0
	for _, tr := range []int{0, 1} {
		if trace >= 0 && trace != tr {
			continue
		}
		for _, w := range workloadNames {
			s := seconds
			if s == 0 {
				s = defaultSeconds[w]
			}
			if tr == 1 && s > tracedSeconds {
				s = tracedSeconds
			}
			if _, err := runChild(w, seed, s, tr, out, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w, err)
				code = 1
			}
		}
	}
	return code
}

// childResult is the JSON line of a single-workload run.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild re-executes this binary for one workload, copies its output to
// stdout when given one, and parses its last line.
func runChild(workload string, seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if stdout != nil {
		cmd.Stdout = io.MultiWriter(&buf, stdout)
	}
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %v", err)
	}
	return &res, nil
}
