package cluster

import (
	"errors"
	"math"
	"testing"
)

// Edge cases of Space.Enumerate beyond the paper grids: mismatched choice
// list lengths, empty inner lists, and duplicate-configuration collapse.

func TestEnumerateMismatchedChoiceLengths(t *testing.T) {
	s := Space{
		PEChoices:   [][]int{{1}, {2}},
		ProcChoices: [][]int{{1}},
	}
	if _, err := s.Enumerate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mismatched lengths: got %v, want ErrBadConfig", err)
	}
	s = Space{
		PEChoices:   [][]int{{1}},
		ProcChoices: [][]int{{1}, {2}},
	}
	if _, err := s.Enumerate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mismatched lengths (proc longer): got %v, want ErrBadConfig", err)
	}
}

func TestEnumerateEmptyInnerChoices(t *testing.T) {
	// An empty inner list means no value for that coordinate: the grid
	// product is empty, yielding zero configurations rather than an error.
	s := Space{
		PEChoices:   [][]int{{}, {1, 2}},
		ProcChoices: [][]int{{1}, {1}},
	}
	cfgs, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 0 {
		t.Errorf("empty PE choices produced %d configurations, want 0", len(cfgs))
	}
	s = Space{
		PEChoices:   [][]int{{1}},
		ProcChoices: [][]int{{}},
	}
	cfgs, err = s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 0 {
		t.Errorf("empty proc choices produced %d configurations, want 0", len(cfgs))
	}
}

func TestEnumerateAllZeroSpace(t *testing.T) {
	// Every grid point normalizes to the empty configuration; all are
	// dropped (TotalProcs == 0), not an error.
	s := Space{
		PEChoices:   [][]int{{0}},
		ProcChoices: [][]int{{1, 2, 3}},
	}
	cfgs, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 0 {
		t.Errorf("all-zero space produced %d configurations, want 0", len(cfgs))
	}
}

func TestEnumerateCollapsesDuplicates(t *testing.T) {
	// Class 0 is unused (PEs = 0), so its three proc choices normalize to
	// the same configuration; class 1 has duplicate values in its choice
	// lists. Distinct survivors: class 1 with PEs in {1, 2}.
	s := Space{
		PEChoices:   [][]int{{0}, {1, 2, 1}},
		ProcChoices: [][]int{{1, 2, 3}, {1, 1}},
	}
	cfgs, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("got %d configurations, want 2: %v", len(cfgs), cfgs)
	}
	for _, cfg := range cfgs {
		if cfg.Use[0].PEs != 0 || cfg.Use[0].Procs != 0 {
			t.Errorf("unused class not normalized: %s", cfg)
		}
	}
	if cfgs[0].Use[1].PEs != 1 || cfgs[1].Use[1].PEs != 2 {
		t.Errorf("unexpected order or values: %v", cfgs)
	}
}

// TestVisitMatchesEnumerate: the streaming walk yields exactly the
// enumerated configurations, in the same order, and the early-stop works.
func TestVisitMatchesEnumerate(t *testing.T) {
	spaces := []Space{
		PaperEvaluationSpace(),
		{PEChoices: [][]int{{0, 1, 1}, {0, 2, 4}}, ProcChoices: [][]int{{1, 2}, {3, 1, 1}}},
		{PEChoices: [][]int{{0}}, ProcChoices: [][]int{{1, 2}}}, // all-zero
	}
	for si, s := range spaces {
		want, err := s.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		var got []Configuration
		err = s.Visit(func(cfg Configuration) bool {
			got = append(got, Configuration{Use: append([]ClassUse(nil), cfg.Use...)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("space %d: visited %d, enumerated %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("space %d position %d: visited %s, enumerated %s", si, i, got[i], want[i])
			}
		}
		if len(want) > 1 {
			seen := 0
			if err := s.Visit(func(Configuration) bool { seen++; return seen < 2 }); err != nil {
				t.Fatal(err)
			}
			if seen != 2 {
				t.Fatalf("space %d: early stop visited %d", si, seen)
			}
		}
	}
}

// TestGridRandomAccess: At(idx) decodes exactly the configuration Visit
// yields at that index, and Size matches the walk length.
func TestGridRandomAccess(t *testing.T) {
	s := Space{
		PEChoices:   [][]int{{0, 1}, {0, 1, 2, 4}, {1, 3}},
		ProcChoices: [][]int{{1, 2, 3}, {1, 2}, {1, 0}},
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var walked int64
	buf := make([]ClassUse, g.Classes())
	g.Visit(func(idx int64, cfg Configuration) bool {
		if idx != walked {
			t.Fatalf("walk index %d, expected %d", idx, walked)
		}
		g.At(idx, buf)
		for ci := range buf {
			if buf[ci] != cfg.Use[ci] {
				t.Fatalf("At(%d) class %d = %+v, Visit saw %+v", idx, ci, buf[ci], cfg.Use[ci])
			}
		}
		walked++
		return true
	})
	if walked != g.Size() {
		t.Fatalf("walked %d grid points, Size() = %d", walked, g.Size())
	}
	// Strides are consistent with the pair-list lengths.
	total := int64(1)
	for ci := g.Classes() - 1; ci >= 0; ci-- {
		if g.Stride(ci) != total {
			t.Fatalf("Stride(%d) = %d, want %d", ci, g.Stride(ci), total)
		}
		total *= int64(len(g.Pairs(ci)))
	}
}

// TestCompileOverflow: a grid with more than 2^63 points is rejected
// instead of silently wrapping.
func TestCompileOverflow(t *testing.T) {
	classes := 41 // 3^41 > 2^63
	s := Space{PEChoices: make([][]int, classes), ProcChoices: make([][]int, classes)}
	for i := range s.PEChoices {
		s.PEChoices[i] = []int{1, 2, 3}
		s.ProcChoices[i] = []int{1}
	}
	if _, err := s.Compile(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("2^63 overflow not rejected: %v", err)
	}
}

// TestCompileRejectsHugeP: the search tabulates per total process count, so
// a space that can reach more than 2¹⁶ processes is refused at Compile — the
// boundary itself is accepted — and absurd per-pair products cannot wrap the
// sum into range.
func TestCompileRejectsHugeP(t *testing.T) {
	at := Space{PEChoices: [][]int{{0, 1, 2, 40000}, {0, 1, 4, 12768}}, ProcChoices: [][]int{{1}, {1, 2}}}
	if g, err := at.Compile(); err != nil || g.Size() != 4*7 {
		t.Fatalf("space reaching exactly 2^16 processes: %v", err)
	}
	for name, s := range map[string]Space{
		"one over":  {PEChoices: [][]int{{0, 1, 2, 40000}, {0, 1, 4, 12769}}, ProcChoices: [][]int{{1}, {1, 2}}},
		"hugeP":     {PEChoices: [][]int{{0, 1, 2, 40000}, {0, 1, 4, 40000}}, ProcChoices: [][]int{{1, 2}, {1, 3}}},
		"wrapping":  {PEChoices: [][]int{{math.MaxInt}, {1}}, ProcChoices: [][]int{{math.MaxInt}, {1}}},
		"wrapping2": {PEChoices: [][]int{{1 << 32}, {1}}, ProcChoices: [][]int{{1 << 32}, {1}}},
	} {
		if _, err := s.Compile(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: space beyond 2^16 processes not rejected: %v", name, err)
		}
		if _, err := s.Enumerate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: Enumerate accepted the space: %v", name, err)
		}
	}
}

// TestDescriptorValidate: every way a descriptor can be unusable — or could
// make the estimator allocate without bound — is refused.
func TestDescriptorValidate(t *testing.T) {
	good := func() *Descriptor {
		return &Descriptor{
			Nodes:     [][]NodeSpec{{{CPUs: 1, MemoryBytes: 1 << 30}}, {{CPUs: 2, MemoryBytes: 1 << 29}, {CPUs: 2, MemoryBytes: 1 << 29}}},
			RankBytes: RankBytes{N2OverP: 8, N: 512, Fixed: 1 << 20},
		}
	}
	if err := good().Validate(2); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	if err := (&Descriptor{Nodes: [][]NodeSpec{{{CPUs: maxTotalProcs, MemoryBytes: 1}}}}).Validate(1); err != nil {
		t.Fatalf("class at the cpu cap with a zero requirement rejected: %v", err)
	}
	for name, mutate := range map[string]func(d *Descriptor){
		"class count":     func(d *Descriptor) { d.Nodes = d.Nodes[:1] },
		"empty class":     func(d *Descriptor) { d.Nodes[1] = nil },
		"zero cpus":       func(d *Descriptor) { d.Nodes[1][0].CPUs = 0 },
		"negative cpus":   func(d *Descriptor) { d.Nodes[0][0].CPUs = -2 },
		"zero memory":     func(d *Descriptor) { d.Nodes[0][0].MemoryBytes = 0 },
		"negative memory": func(d *Descriptor) { d.Nodes[1][1].MemoryBytes = -1 },
		"NaN memory":      func(d *Descriptor) { d.Nodes[1][1].MemoryBytes = math.NaN() },
		"+Inf memory":     func(d *Descriptor) { d.Nodes[1][1].MemoryBytes = math.Inf(1) },
		"-Inf memory":     func(d *Descriptor) { d.Nodes[1][1].MemoryBytes = math.Inf(-1) },
		"cpu cap":         func(d *Descriptor) { d.Nodes[1][0].CPUs = maxTotalProcs - 1 },
		"cpu sum wraps":   func(d *Descriptor) { d.Nodes[1][1].CPUs = math.MaxInt },
		"negative coeff":  func(d *Descriptor) { d.RankBytes.N = -1 },
		"NaN coeff":       func(d *Descriptor) { d.RankBytes.N2OverP = math.NaN() },
		"Inf coeff":       func(d *Descriptor) { d.RankBytes.Fixed = math.Inf(1) },
	} {
		d := good()
		mutate(d)
		if err := d.Validate(2); !errors.Is(err, ErrBadCluster) {
			t.Errorf("%s: err = %v, want ErrBadCluster", name, err)
		}
	}
}
