// Command hetlint runs this repository's invariant analyzers — per-package
// (maporder, hotpath, nodeterm, floatorder, atomicfield) and whole-program
// (hotpathprop, allocfree, lockorder); see internal/analysis:
//
//	hetlint ./...
//
// It loads and type-checks every matched package from source as one
// program, runs the per-package analyzers over each package and the
// whole-program analyzers over the full cross-package call graph. make lint
// and the CI lint job run it.
//
// Individual analyzers toggle like vet passes: `hetlint -maporder ./...`
// runs only maporder; `hetlint -maporder=false ./...` runs all but.
//
// -json switches to machine-readable output: a JSON array of {file, line,
// col, analyzer, message} objects on stdout (empty array when clean; exit
// status 1 when findings exist). CI uploads it as the lint job's artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"log"
	"os"
	"strings"

	"hetmodel/internal/analysis"
	"hetmodel/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetlint: ")

	all := analysis.Analyzers()
	prog := analysis.ProgramAnalyzers()
	selected := make(map[string]*string, len(all)+len(prog))
	for _, a := range all {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		selected[a.Name] = triStateFlag(a.Name, "enable "+a.Name+" analysis: "+doc)
	}
	for _, a := range prog {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		selected[a.Name] = triStateFlag(a.Name, "enable "+a.Name+" analysis (whole-program): "+doc)
	}
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	version.AddFlag()
	flag.Parse()
	version.MaybePrint("hetlint")

	enabled, enabledProg := enabledAnalyzers(all, prog, selected)
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	run(args, enabled, enabledProg, *jsonOut)
}

// enabledAnalyzers applies vet's selection semantics across both analyzer
// sets: naming any analyzer with -name runs only the named ones; -name=false
// runs all but those; otherwise everything runs.
func enabledAnalyzers(all []*analysis.Analyzer, prog []*analysis.ProgramAnalyzer, selected map[string]*string) ([]*analysis.Analyzer, []*analysis.ProgramAnalyzer) {
	hasTrue, hasFalse := false, false
	for _, v := range selected {
		switch *v {
		case "true":
			hasTrue = true
		case "false":
			hasFalse = true
		}
	}
	keepName := func(name string) bool {
		v := *selected[name]
		if hasTrue && v != "true" {
			return false
		}
		if !hasTrue && hasFalse && v == "false" {
			return false
		}
		return true
	}
	var keep []*analysis.Analyzer
	for _, a := range all {
		if keepName(a.Name) {
			keep = append(keep, a)
		}
	}
	var keepProg []*analysis.ProgramAnalyzer
	for _, a := range prog {
		if keepName(a.Name) {
			keepProg = append(keepProg, a)
		}
	}
	return keep, keepProg
}

// jsonDiagnostic is one finding in -json output.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(patterns []string, enabled []*analysis.Analyzer, enabledProg []*analysis.ProgramAnalyzer, jsonOut bool) {
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		log.Fatal(err)
	}
	var all []jsonDiagnostic
	report := func(fset *token.FileSet, d analysis.Diagnostic) {
		p := fset.Position(d.Pos)
		if jsonOut {
			all = append(all, jsonDiagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: d.Analyzer, Message: d.Message})
			return
		}
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", p, d.Analyzer, d.Message)
	}
	found := false
	for _, p := range pkgs {
		diags, err := analysis.RunPackage(p.Fset, p.Files, p.Pkg, p.Info, enabled)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			found = true
			report(p.Fset, d)
		}
	}
	// Whole-program pass over everything the patterns matched, with the
	// full cross-package call graph.
	if len(pkgs) > 0 {
		diags, err := analysis.RunProgram(pkgs, enabledProg)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			found = true
			report(pkgs[0].Fset, d)
		}
	}
	if jsonOut {
		if all == nil {
			all = []jsonDiagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(all); err != nil {
			log.Fatal(err)
		}
	}
	if found {
		os.Exit(1)
	}
}

// triStateFlag registers a string flag that accepts bare -name (implicit
// true) as well as -name=false, the way go vet spells analyzer toggles.
func triStateFlag(name, usage string) *string {
	v := new(string)
	flag.Var(triState{v}, name, usage)
	return v
}

type triState struct{ v *string }

func (t triState) String() string {
	if t.v == nil {
		return ""
	}
	return *t.v
}
func (t triState) IsBoolFlag() bool { return true }
func (t triState) Set(s string) error {
	switch s {
	case "true", "false":
		*t.v = s
		return nil
	}
	return fmt.Errorf("invalid boolean value %q", s)
}
