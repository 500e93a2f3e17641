package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetmodel/internal/machine"
	"hetmodel/internal/simnet"
)

// ClassRanks returns the rank indices belonging to class ci.
func (pl *Placement) ClassRanks(ci int) []int {
	var out []int
	for r, rp := range pl.Ranks {
		if rp.Class == ci {
			out = append(out, r)
		}
	}
	return out
}

func paperCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := NewPaper(simnet.NewMPICH122())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNewPaperShape(t *testing.T) {
	cl := paperCluster(t)
	if len(cl.Classes) != 2 {
		t.Fatalf("classes = %d", len(cl.Classes))
	}
	if got := cl.Classes[0].PEs(); got != 1 {
		t.Fatalf("Athlon PEs = %d", got)
	}
	if got := cl.Classes[1].PEs(); got != 8 {
		t.Fatalf("P-II PEs = %d", got)
	}
	if cl.Classes[0].Type().Name != "Athlon-1333" {
		t.Fatalf("class 0 type = %s", cl.Classes[0].Type().Name)
	}
}

func TestNewValidation(t *testing.T) {
	fabric, _ := simnet.NewFabric(simnet.NewMPICH122(), simnet.NewFast100TX())
	if _, err := New(nil, fabric); !errors.Is(err, ErrBadCluster) {
		t.Fatal("empty classes accepted")
	}
	if _, err := New([]Class{{Name: "x"}}, fabric); !errors.Is(err, ErrBadCluster) {
		t.Fatal("class without nodes accepted")
	}
	good := []Class{{Name: "a", Nodes: []*machine.Node{machine.NewAthlonNode("n")}}}
	if _, err := New(good, nil); !errors.Is(err, ErrBadCluster) {
		t.Fatal("nil fabric accepted")
	}
	// Mixed types within a class must be rejected.
	mixed := []Class{{Name: "m", Nodes: []*machine.Node{
		machine.NewAthlonNode("n1"), machine.NewPentiumIINode("n2"),
	}}}
	if _, err := New(mixed, fabric); !errors.Is(err, ErrBadCluster) {
		t.Fatal("mixed class accepted")
	}
	bad := machine.NewAthlonNode("n")
	bad.CPUs = 0
	if _, err := New([]Class{{Name: "b", Nodes: []*machine.Node{bad}}}, fabric); !errors.Is(err, ErrBadCluster) {
		t.Fatal("invalid node accepted")
	}
}

func TestConfigurationTotalsAndString(t *testing.T) {
	cfg := Configuration{Use: []ClassUse{{1, 2}, {8, 1}}}
	if cfg.TotalProcs() != 10 {
		t.Fatalf("P = %d", cfg.TotalProcs())
	}
	if cfg.String() != "(1,2,8,1)" {
		t.Fatalf("string = %s", cfg.String())
	}
}

func TestNormalizeCollapsesUnused(t *testing.T) {
	a := Configuration{Use: []ClassUse{{0, 3}, {8, 1}}}
	b := Configuration{Use: []ClassUse{{0, 5}, {8, 1}}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %s vs %s", a.Key(), b.Key())
	}
	c := Configuration{Use: []ClassUse{{2, 0}, {8, 1}}}
	if c.Normalize().Use[0] != (ClassUse{}) {
		t.Fatal("zero-proc use not collapsed")
	}
}

func TestPlacePaperHeteroConfig(t *testing.T) {
	cl := paperCluster(t)
	// (P1=1, M1=2, P2=8, M2=1): 10 ranks.
	pl, err := cl.Place(Configuration{Use: []ClassUse{{1, 2}, {8, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.P() != 10 {
		t.Fatalf("P = %d", pl.P())
	}
	// First two ranks share the single Athlon CPU.
	if pl.Ranks[0].Class != 0 || pl.Ranks[1].Class != 0 {
		t.Fatal("Athlon ranks not first")
	}
	if !pl.SameNode(0, 1) || pl.Ranks[0].CPU != pl.Ranks[1].CPU {
		t.Fatal("Athlon multiprocess ranks must share the CPU")
	}
	if pl.Ranks[0].Resident != 2 {
		t.Fatalf("Athlon resident = %d", pl.Ranks[0].Resident)
	}
	// P-II ranks: 8 ranks on 4 dual nodes, selected round-robin across
	// nodes (CPU 0 of each node first): ranks 2..5 are CPU 0 of nodes
	// 1..4, ranks 6..9 are CPU 1 of the same nodes. So ranks 2 and 6
	// share the first P-II node while 2 and 3 do not.
	if pl.SameNode(2, 3) {
		t.Fatal("ranks 2,3 should be on different nodes (round-robin)")
	}
	if !pl.SameNode(2, 6) {
		t.Fatal("ranks 2,6 should share the first P-II node")
	}
	if pl.Ranks[2].CPU != 0 || pl.Ranks[6].CPU != 1 {
		t.Fatalf("CPU indices: rank2=%d rank6=%d", pl.Ranks[2].CPU, pl.Ranks[6].CPU)
	}
	if pl.Ranks[2].Resident != 1 {
		t.Fatalf("P-II resident = %d", pl.Ranks[2].Resident)
	}
	// Class rank listing.
	if got := pl.ClassRanks(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("class 0 ranks = %v", got)
	}
	if got := pl.ClassRanks(1); len(got) != 8 {
		t.Fatalf("class 1 ranks = %v", got)
	}
}

func TestPlaceValidation(t *testing.T) {
	cl := paperCluster(t)
	if _, err := cl.Place(Configuration{Use: []ClassUse{{1, 1}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("wrong class count accepted")
	}
	if _, err := cl.Place(Configuration{Use: []ClassUse{{2, 1}, {0, 0}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("over-allocation accepted")
	}
	if _, err := cl.Place(Configuration{Use: []ClassUse{{0, 0}, {0, 0}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty config accepted")
	}
}

func TestPlacementTransferTime(t *testing.T) {
	cl := paperCluster(t)
	pl, err := cl.Place(Configuration{Use: []ClassUse{{1, 2}, {8, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	intra := pl.TransferTime(64*1024, 0, 1) // same node (Athlon pair)
	inter := pl.TransferTime(64*1024, 0, 2) // Athlon → P-II node
	if intra >= inter {
		t.Fatalf("intra-node (%v) should beat inter-node (%v)", intra, inter)
	}
}

func TestNodeResidentBytes(t *testing.T) {
	cl := paperCluster(t)
	pl, _ := cl.Place(Configuration{Use: []ClassUse{{1, 2}, {2, 1}}})
	bytes := pl.NodeResidentBytes(func(rank int) float64 { return 100 })
	// Node 0 (Athlon) hosts 2 ranks; the two P-II PEs spread round-robin
	// over nodes 1 and 2, one rank each.
	if bytes[0] != 200 {
		t.Fatalf("node0 bytes = %v", bytes[0])
	}
	if bytes[1] != 100 || bytes[2] != 100 {
		t.Fatalf("P-II node bytes = %v / %v", bytes[1], bytes[2])
	}
}

func TestEnumeratePaperEvaluationSpace(t *testing.T) {
	cfgs, err := PaperEvaluationSpace().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// The paper counts 62 evaluation configurations.
	if len(cfgs) != 62 {
		t.Fatalf("evaluation configs = %d, want 62", len(cfgs))
	}
	// All distinct keys, all with at least one process.
	seen := map[string]bool{}
	for _, c := range cfgs {
		if c.TotalProcs() < 1 {
			t.Fatalf("empty config %s", c)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate config %s", c)
		}
		seen[c.Key()] = true
	}
}

func TestEnumeratePaperConstructionSpaces(t *testing.T) {
	athlon, pii := PaperConstructionSpace([]int{1, 2, 3, 4, 5, 6, 7, 8})
	a, err := athlon.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 { // M1 = 1..6
		t.Fatalf("athlon construction configs = %d, want 6", len(a))
	}
	p, err := pii.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 48 { // P2 = 1..8 × M2 = 1..6
		t.Fatalf("P-II construction configs = %d, want 48", len(p))
	}
	// NL/NS spaces use P2 ∈ {1,2,4,8}: 24 configs.
	_, piiNL := PaperConstructionSpace([]int{1, 2, 4, 8})
	pnl, _ := piiNL.Enumerate()
	if len(pnl) != 24 {
		t.Fatalf("NL P-II construction configs = %d, want 24", len(pnl))
	}
}

func TestEnumerateBadSpace(t *testing.T) {
	if _, err := (Space{}).Enumerate(); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty space accepted")
	}
	s := Space{PEChoices: [][]int{{1}}, ProcChoices: [][]int{{1}, {2}}}
	if _, err := s.Enumerate(); !errors.Is(err, ErrBadConfig) {
		t.Fatal("mismatched space accepted")
	}
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	a, _ := PaperEvaluationSpace().Enumerate()
	b, _ := PaperEvaluationSpace().Enumerate()
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("enumeration order not deterministic")
		}
	}
}

// Property: every valid configuration places exactly P ranks with
// consistent resident counts and in-bounds node/CPU assignments.
func TestPlacementInvariantsProperty(t *testing.T) {
	cl := paperCluster(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Configuration{Use: []ClassUse{
			{PEs: rng.Intn(2), Procs: 1 + rng.Intn(6)},
			{PEs: rng.Intn(9), Procs: 1 + rng.Intn(6)},
		}}
		if cfg.TotalProcs() == 0 {
			return true
		}
		pl, err := cl.Place(cfg)
		if err != nil {
			return false
		}
		if pl.P() != cfg.TotalProcs() {
			return false
		}
		// Count ranks per (node, cpu) and check Resident consistency.
		perCPU := map[[2]int]int{}
		for _, rp := range pl.Ranks {
			if rp.Node == nil || rp.Type == nil {
				return false
			}
			if rp.CPU < 0 || rp.CPU >= rp.Node.CPUs {
				return false
			}
			perCPU[[2]int{rp.NodeID, rp.CPU}]++
		}
		for _, rp := range pl.Ranks {
			if perCPU[[2]int{rp.NodeID, rp.CPU}] != rp.Resident {
				return false
			}
		}
		// Per class, the number of distinct CPUs equals the requested PEs.
		for ci, use := range cfg.Normalize().Use {
			cpus := map[[2]int]bool{}
			for _, r := range pl.ClassRanks(ci) {
				rp := pl.Ranks[r]
				cpus[[2]int{rp.NodeID, rp.CPU}] = true
			}
			if len(cpus) != use.PEs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer time is symmetric between rank pairs and positive.
func TestTransferSymmetryProperty(t *testing.T) {
	cl := paperCluster(t)
	pl, err := cl.Place(Configuration{Use: []ClassUse{{PEs: 1, Procs: 3}, {PEs: 8, Procs: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := rng.Intn(pl.P()), rng.Intn(pl.P())
		if a == b {
			return true
		}
		bytes := float64(1 + rng.Intn(1<<20))
		tab := pl.TransferTime(bytes, a, b)
		tba := pl.TransferTime(bytes, b, a)
		return tab > 0 && math.Abs(tab-tba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
