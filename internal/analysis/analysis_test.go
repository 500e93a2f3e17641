package analysis

import (
	"path/filepath"
	"testing"
)

// fixture runs one analyzer over a testdata fixture package and reports
// every mismatch between produced diagnostics and // want expectations.
func fixture(t *testing.T, a *Analyzer, elems ...string) {
	t.Helper()
	dir := filepath.Join(append([]string{"testdata", "src"}, elems...)...)
	for _, err := range RunFixture(dir, a) {
		t.Error(err)
	}
}

func TestMapOrderFixture(t *testing.T) {
	fixture(t, MapOrder, "maporder")
}

func TestHotPathFixture(t *testing.T) {
	fixture(t, HotPath, "hotpath")
}

// programFixture is the whole-program analogue of fixture.
func programFixture(t *testing.T, a *ProgramAnalyzer, elems ...string) {
	t.Helper()
	dir := filepath.Join(append([]string{"testdata", "src"}, elems...)...)
	for _, err := range RunProgramFixture(dir, a) {
		t.Error(err)
	}
}

func TestNoDetermFixture(t *testing.T) {
	fixture(t, NoDeterm, "nodeterm", "internal", "core")
}

func TestNoDetermOutOfScope(t *testing.T) {
	fixture(t, NoDeterm, "nodeterm", "outofscope")
}

func TestNoDetermStatsFixture(t *testing.T) {
	fixture(t, NoDeterm, "nodeterm", "internal", "stats")
}

func TestNoDetermFleetFixture(t *testing.T) {
	fixture(t, NoDeterm, "nodeterm", "internal", "fleet")
}

func TestNoDetermSimulatorFixtures(t *testing.T) {
	for _, pkg := range []string{"hpl", "machine", "simnet"} {
		fixture(t, NoDeterm, "nodeterm", "internal", pkg)
	}
}

func TestHotPathPropFixture(t *testing.T) {
	programFixture(t, HotPathProp, "hotpathprop")
}

func TestAllocFreeFixture(t *testing.T) {
	programFixture(t, AllocFree, "allocfree")
}

func TestLockOrderFixture(t *testing.T) {
	programFixture(t, LockOrder, "lockorder")
}

func TestAtomicFieldFixture(t *testing.T) {
	fixture(t, AtomicField, "atomicfield")
}

func TestFloatOrderFixture(t *testing.T) {
	fixture(t, FloatOrder, "floatorder", "internal", "lsq")
}

// TestSuiteOverOwnModule runs the full suite over this repository: the tree
// must be clean. This is the same check `make lint` enforces via hetlint, kept
// as a plain test so `go test ./...` (tier 1) already guards the invariants.
func TestSuiteOverOwnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, p := range pkgs {
		diags, err := RunPackage(p.Fset, p.Files, p.Pkg, p.Info, Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", p.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", p.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	// The whole-program pass sees the full cross-package call graph here —
	// this is the most complete coverage the suite gets (the vet protocol
	// only ever hands it one package at a time).
	diags, err := RunProgram(pkgs, ProgramAnalyzers())
	if err != nil {
		t.Fatalf("program analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

func TestAnalyzerNamesStable(t *testing.T) {
	want := []string{"maporder", "hotpath", "nodeterm", "floatorder", "atomicfield"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: name %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q: missing Doc or Run", a.Name)
		}
	}
	wantProg := []string{"hotpathprop", "allocfree", "lockorder"}
	gotProg := ProgramAnalyzers()
	if len(gotProg) != len(wantProg) {
		t.Fatalf("got %d program analyzers, want %d", len(gotProg), len(wantProg))
	}
	for i, a := range gotProg {
		if a.Name != wantProg[i] {
			t.Errorf("program analyzer %d: name %q, want %q", i, a.Name, wantProg[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("program analyzer %q: missing Doc or Run", a.Name)
		}
	}
}
