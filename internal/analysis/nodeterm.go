package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterministicPackages scopes NoDeterm: the simulation and numerics core,
// where every result must be a pure function of explicit inputs and seeds.
// Matching is by path suffix so the fixture packages under testdata can
// exercise the analyzer without carrying the module prefix.
var DeterministicPackages = []string{
	"internal/core",
	"internal/linalg",
	"internal/lsq",
	"internal/vmpi",
	"internal/des",
	// The workload generator and replay summarizer must be byte-stable so
	// committed traces and golden summaries can gate CI; wall time only
	// enters replay through the injected Clock (cmd/hetload owns the real
	// one).
	"internal/workload",
	// Summary statistics feed golden files and refit decisions; reservoir
	// sampling already threads explicit seeds (rand.New(rand.NewSource)),
	// and this scope keeps it that way.
	"internal/stats",
	// The fleet router's scatter-gather merge must rank shard results
	// identically on every run; durations for timeouts are fine
	// (time.Duration, NewTicker), wall-clock reads are not.
	"internal/fleet",
	// The HPL simulator and the machine and network models under it produce
	// every number the committed report and figures pin (the golden test in
	// internal/experiments); run-to-run noise is drawn from seeded streams
	// only (hpl.RunNoise).
	"internal/hpl",
	"internal/machine",
	"internal/simnet",
}

// NoDeterm forbids ambient entropy — wall-clock reads and unseeded global
// randomness — inside the deterministic core packages. Virtual time comes
// from the simulation clocks, and every random stream flows from an explicit
// seed (rand.New(rand.NewSource(seed))), so reruns, refits and the committed
// figures are bit-reproducible. time.Now for profiling, or a global
// rand.Float64 for jitter, silently breaks that contract without failing any
// test until outputs are compared across runs.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc: `forbid wall-clock and unseeded randomness in deterministic packages

Inside internal/{core,linalg,lsq,vmpi,des,workload,stats,fleet,hpl,machine,
simnet}, time.Now/Since/Until, the global math/rand and math/rand/v2 top-level
generators, and crypto/rand are all banned: entropy must flow from explicit
seeds, time from virtual or injected clocks.`,
	Run: runNoDeterm,
}

func runNoDeterm(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), DeterministicPackages) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(), "time.%s reads the wall clock in deterministic package %s; derive time from the simulation clock or pass it in", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				// Top-level functions draw from the shared global generator;
				// methods on an explicitly seeded *rand.Rand are fine, as are
				// the New* constructors that build one from a seed.
				sig, ok := fn.Type().(*types.Signature)
				if ok && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(), "%s.%s uses the global random source in deterministic package %s; use rand.New(rand.NewSource(seed)) and thread the seed explicitly", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(), "crypto/rand is inherently nondeterministic; package %s must draw randomness from explicit seeds", pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
