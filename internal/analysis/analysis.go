// Package analysis is a self-contained static-analysis framework plus the
// hetlint analyzer suite that machine-checks this repository's two load-bearing
// invariants:
//
//   - determinism: outputs are bit-identical at any worker count, so nothing
//     may iterate a map into ordered output (maporder), draw entropy outside
//     an explicit seed (nodeterm), or leave a bit-exact float kernel open to
//     reassociation or FMA fusion (floatorder);
//   - zero-alloc hot paths: functions annotated //het:hotpath must not
//     contain the allocation patterns that the tier-1 AllocsPerRun tests
//     can only catch after the fact, at runtime (hotpath), and
//     the same rules propagate through the static call graph to every
//     function reachable from a hotpath root (hotpathprop); functions
//     annotated //het:allocfree are statically certified to contain no
//     allocation site along any reachable path (allocfree);
//   - concurrency discipline: mutexes must be acquired in one global order —
//     lock→lock edges observed across the program must form no cycle
//     (lockorder) — and a field accessed through sync/atomic must never be
//     read or written plainly elsewhere (atomicfield).
//
// Per-package analyzers implement the Analyzer interface; interprocedural
// ones implement ProgramAnalyzer and run over a call graph built from every
// loaded package (see callgraph.go for construction and soundness caveats).
//
// The API mirrors golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic
// — but is built on the standard library only (go/ast, go/types, go/importer),
// because this repository vendors nothing and builds offline. cmd/hetlint
// drives the suite either standalone (hetlint ./...) or as a `go vet
// -vettool` backend speaking the unitchecker *.cfg protocol.
//
// Suppressions are explicit and carry a reason:
//
//	b.msgs = append(b.msgs, env) //het:allow hotpath -- amortized queue growth
//
// An //het:allow directive naming the analyzer on the flagged line (or the
// line above it) silences the diagnostic; a directive without a reason is
// itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //het:allow
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description, shown by hetlint help.
	Doc string
	// Run inspects one package and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver filters suppressed
	// diagnostics afterwards, so analyzers never inspect //het:allow
	// directives themselves.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Analyzers returns the per-package hetlint suite in stable order. These
// analyzers need only one type-checked package at a time, so they run under
// both driver modes (standalone and `go vet -vettool`) with identical results.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, HotPath, NoDeterm, FloatOrder, AtomicField}
}

// ProgramAnalyzers returns the whole-program hetlint suite in stable order.
// These analyzers reason over the call graph spanning every loaded package
// (hotpath taint propagation, allocation-freedom certification, lock-order
// cycles), so their coverage grows with the program handed to RunProgram:
// the standalone driver loads the entire module, while the vet protocol
// type-checks one package per invocation and therefore sees only
// intra-package edges. CI runs both.
func ProgramAnalyzers() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{HotPathProp, AllocFree, LockOrder}
}

// ProgramAnalyzer describes one whole-program invariant checker.
type ProgramAnalyzer struct {
	// Name identifies the analyzer in diagnostics and //het:allow directives.
	Name string
	// Doc is a one-paragraph description, shown by hetlint help.
	Doc string
	// Run inspects the whole program and reports diagnostics via pass.Report.
	Run func(pass *ProgramPass) error
}

// ProgramPass carries the full set of loaded packages through one
// whole-program analyzer.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunProgram executes the whole-program analyzers over the loaded packages
// and returns the surviving diagnostics sorted by position. //het:allow
// filtering spans every file of every package; malformed allow directives are
// NOT re-reported here — RunPackage owns that finding, and the same files
// pass through it in both driver modes.
func RunProgram(pkgs []*Package, analyzers []*ProgramAnalyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &ProgramPass{Analyzer: a, Fset: fset, Pkgs: pkgs}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	var allFiles []*ast.File
	for _, p := range pkgs {
		allFiles = append(allFiles, p.Files...)
	}
	allows, _ := collectAllows(fset, allFiles)
	kept := diags[:0]
	for _, d := range diags {
		if allows.covers(fset.Position(d.Pos), d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sortDiagnostics(fset, diags)
	return diags, nil
}

// RunPackage executes the analyzers over one loaded package and returns the
// surviving diagnostics sorted by position: suppressed findings are removed,
// and malformed //het:allow directives (no analyzer name, or no reason) are
// reported as findings of their own.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	allows, bad := collectAllows(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if allows.covers(fset.Position(d.Pos), d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	diags = append(kept, bad...)
	sortDiagnostics(fset, diags)
	return diags, nil
}

// sortDiagnostics orders findings by (file, line, message) so driver output
// is stable across runs and analyzer orderings.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
}

// allowSet records which (file, line) positions carry an //het:allow for
// which analyzer names. A directive covers its own line and the line below
// it, so it can sit either trailing the flagged statement or on its own line
// directly above.
type allowSet map[string]map[int][]string

func (s allowSet) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range lines[l] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// allowPrefix introduces a suppression: //het:allow <analyzer> -- <reason>.
const allowPrefix = "//het:allow"

func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	set := allowSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				name, reason, _ := strings.Cut(rest, "--")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "het:allow directive needs an analyzer name and a reason: //het:allow <analyzer> -- <why this is safe>",
						Analyzer: "directive",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					set[pos.Filename] = lines
				}
				for _, n := range strings.Fields(name) {
					lines[pos.Line] = append(lines[pos.Line], n)
				}
			}
		}
	}
	return set, bad
}

// funcDirectives reports whether a function's doc comment carries the given
// //het: directive (e.g. "hotpath", "bitexact"). Directives are whole-line
// comments in the doc block, in the style of //go:noinline.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	want := "//het:" + directive
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file belongs to the package's tests. The
// invariants guard production code; tests exercise nondeterminism (timeouts,
// randomized fuzzing) on purpose.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// pathMatches reports whether a package path is covered by a scope list:
// an exact match or a suffix match on a "/"-boundary, so "internal/core"
// covers "hetmodel/internal/core" in-repo and "core" fixtures under test.
func pathMatches(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
