package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/machine"
	"hetmodel/internal/parallel"
	"hetmodel/internal/simnet"
)

// referenceMemoryGuard is the closure the §3.4 rule used to be
// (Cluster.MemoryGuard before the descriptor replaced it), kept as the
// reference the compiled rule is property-tested against: place the
// configuration, sum 8·N²/P + perRankExtra(N) bytes over each node's ranks,
// and return 1 when every node's resident set fits its physical memory, +Inf
// otherwise — unplaceable configurations included.
func referenceMemoryGuard(cl *cluster.Cluster, perRankExtra func(n float64) float64) func(cfg cluster.Configuration, n float64) float64 {
	return func(cfg cluster.Configuration, n float64) float64 {
		pl, err := cl.Place(cfg)
		if err != nil {
			return math.Inf(1)
		}
		p := float64(pl.P())
		extra := perRankExtra(n)
		bytes := pl.NodeResidentBytes(func(rank int) float64 {
			return 8*n*n/p + extra
		})
		for _, rp := range pl.Ranks {
			if bytes[rp.NodeID] > rp.Node.MemoryBytes {
				return math.Inf(1)
			}
		}
		return 1
	}
}

// hplExtra is HPL's per-rank requirement beyond the matrix share, as the
// experiments package attaches it: 8·NB·N bytes of panel buffers plus the
// fixed workspace.
func hplExtra(nb int, workspace float64) func(n float64) float64 {
	return func(n float64) float64 { return 8*n*float64(nb) + workspace }
}

// describe builds the descriptor of a cluster the way internal/experiments
// does (which core's tests cannot import).
func describe(cl *cluster.Cluster, nb int, workspace float64) *cluster.Descriptor {
	d := &cluster.Descriptor{
		Nodes:     make([][]cluster.NodeSpec, len(cl.Classes)),
		RankBytes: cluster.RankBytes{N2OverP: 8, N: 8 * float64(nb), Fixed: workspace},
	}
	for ci, class := range cl.Classes {
		for _, node := range class.Nodes {
			d.Nodes[ci] = append(d.Nodes[ci], cluster.NodeSpec{CPUs: node.CPUs, MemoryBytes: node.MemoryBytes})
		}
	}
	return d
}

// paperDescriptor describes the paper cluster with a fixed per-rank extra.
func paperDescriptor(t *testing.T, workspace float64) *cluster.Descriptor {
	return describe(paperClusterForCore(t), 0, workspace)
}

// tightDescriptor is the paper cluster's shape with 128 MiB nodes: at the
// paper's larger sizes it excludes small configurations, fits large ones and
// cannot place more than one class-0 PE — every verdict in one space.
func tightDescriptor() *cluster.Descriptor {
	const mem = 128 << 20
	return &cluster.Descriptor{
		Nodes: [][]cluster.NodeSpec{
			{{CPUs: 1, MemoryBytes: mem}},
			{{CPUs: 2, MemoryBytes: mem}, {CPUs: 2, MemoryBytes: mem}, {CPUs: 2, MemoryBytes: mem}, {CPUs: 2, MemoryBytes: mem}},
		},
		RankBytes: cluster.RankBytes{N2OverP: 8, N: 512, Fixed: 24 << 20},
	}
}

func TestMemoryGuardExcludes(t *testing.T) {
	ms, _ := Build(2, twoClassWorld())
	ms.ComposeClass(0, 1, 0.25, 0.85)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{}, {PEs: 8, Procs: 1}}}

	// Two ranks per node: 2·(8·N²/8 + 512·N + 24 MiB) passes 128 MiB between
	// N = 3200 (72 MiB) and N = 6400 (136 MiB).
	ms.Cluster = tightDescriptor()
	est, err := ms.Estimate(cfg, 3200)
	if err != nil || math.IsInf(est, 0) {
		t.Fatalf("in-memory config excluded: %v %v", est, err)
	}
	est, err = ms.Estimate(cfg, 6400)
	if err != nil || !math.IsInf(est, 1) {
		t.Fatalf("over-memory config not excluded: %v %v", est, err)
	}
	// The optimizer must never pick an excluded configuration.
	cands := []cluster.Configuration{cfg}
	if _, _, err := ms.Optimize(cands, 6400); err == nil {
		t.Fatal("optimizer picked an excluded configuration")
	}
	best, _, err := ms.Optimize(cands, 3200)
	if err != nil || best.Key() != cfg.Key() {
		t.Fatalf("optimizer failed below the wall: %v %v", best, err)
	}
}

func TestClusterMemoryGuardPredicts(t *testing.T) {
	ms := richWorld(t, paperDescriptor(t, 24<<20))
	excluded := func(cfg cluster.Configuration, n float64) bool {
		t.Helper()
		est, err := ms.Estimate(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		tau, ok := ms.Compile(n).Tau(cfg)
		if !ok || math.Float64bits(tau) != math.Float64bits(est) {
			t.Fatalf("%s at N=%v: Tau %v (%v), Estimate %v", cfg, n, tau, ok, est)
		}
		return math.IsInf(est, 1)
	}
	lone := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 1}, {}}}
	// 8·9600² = 703 MiB + 24 MiB fits in 768 MiB...
	if excluded(lone, 9600) {
		t.Fatal("N=9600 should fit the lone Athlon")
	}
	// ...while 8·10000² = 763 MiB + 24 MiB does not.
	if !excluded(lone, 10000) {
		t.Fatal("N=10000 should exceed the lone Athlon's memory")
	}
	// Spreading over nine PEs fits easily.
	all := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 1}, {PEs: 8, Procs: 1}}}
	if excluded(all, 10000) {
		t.Fatal("N=10000 should fit across nine PEs")
	}
	// Unplaceable configurations are excluded.
	tooMany := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 2, Procs: 1}, {}}}
	if !excluded(tooMany, 1000) {
		t.Fatal("unplaceable configuration not excluded")
	}
	// A requirement with no extra terms is allowed.
	ms.Cluster.RankBytes = cluster.RankBytes{N2OverP: 8}
	if excluded(lone, 9600) {
		t.Fatal("matrix-only requirement broken")
	}
}

// paperClusterForCore builds the paper cluster without importing the
// experiments package (which would create an import cycle in tests).
func paperClusterForCore(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.NewPaper(simnet.NewMPICH122())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// unevenCluster is a three-class cluster whose classes mix CPU counts and
// memory sizes, so round-robin placement leaves nodes of one class with
// different rank counts against different capacities.
func unevenCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	const mib = 1 << 20
	node := func(mk func(string) *machine.Node, name string, cpus int, mem float64) *machine.Node {
		n := mk(name)
		n.CPUs, n.MemoryBytes = cpus, mem
		return n
	}
	fabric, err := simnet.NewFabric(simnet.NewMPICH122(), simnet.NewFast100TX())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New([]cluster.Class{
		{Name: "Athlon", Nodes: []*machine.Node{
			node(machine.NewAthlonNode, "a1", 1, 768*mib),
			node(machine.NewAthlonNode, "a2", 3, 512*mib),
			node(machine.NewAthlonNode, "a3", 2, 768*mib),
		}},
		{Name: "PentiumII", Nodes: []*machine.Node{
			node(machine.NewPentiumIINode, "p1", 2, 384*mib),
			node(machine.NewPentiumIINode, "p2", 2, 384*mib),
			node(machine.NewPentiumIINode, "p3", 4, 1024*mib),
			node(machine.NewPentiumIINode, "p4", 1, 256*mib),
		}},
		{Name: "PentiumIII", Nodes: []*machine.Node{
			node(machine.NewPentiumIIINode, "q1", 2, 512*mib),
			node(machine.NewPentiumIIINode, "q2", 2, 512*mib),
		}},
	}, fabric)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestMemoryRuleMatchesReference is the decision-equivalence property: over
// the paper cluster and a three-class cluster with unequal nodes inside a
// class, for randomized (PEs, Procs) — unplaceable PE counts included — and N
// from 400 to 20000, down to the adjacent float64 sizes where a
// configuration flips and a node whose capacity equals a resident set to the
// bit, the compiled descriptor excludes exactly what the placing closure
// excluded: same τ bits through ModelSet.Estimate and Evaluator.Tau, and the
// same ranked answer from a table-path Search.
func TestMemoryRuleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	extra := hplExtra(64, 24<<20)
	uneven := unevenCluster(t)
	// Capacities a resident set meets to the bit. (0 | 1,2 | 0) at N = 4800
	// puts two ranks on p1 alone, and p1 holds exactly their bytes: the rule's
	// > must keep it. (0 | 2,2 | 0) at N = 6400 puts two on p1 and two on p2,
	// and p2 is one ulp short of them: it must go.
	twoRanks := func(n float64, p int) float64 {
		perRank := 8*n*n/float64(p) + extra(n)
		return perRank + perRank
	}
	uneven.Classes[1].Nodes[0].MemoryBytes = twoRanks(4800, 2)
	uneven.Classes[1].Nodes[1].MemoryBytes = math.Nextafter(twoRanks(6400, 4), 0)
	onP := func(pes int) cluster.Configuration {
		return cluster.Configuration{Use: []cluster.ClassUse{{}, {PEs: pes, Procs: 2}, {}}}
	}
	if ref := referenceMemoryGuard(uneven, extra); ref(onP(1), 4800) != 1 || ref(onP(2), 6400) == 1 {
		t.Fatal("the crafted capacities do not sit on the boundary")
	}
	type probe struct {
		cfg cluster.Configuration
		n   float64
	}
	for _, w := range []struct {
		name  string
		cl    *cluster.Cluster
		ms    *ModelSet
		edges []probe
	}{
		{"paper", paperClusterForCore(t), richWorld(t, nil), nil},
		{"uneven", uneven, multiClassWorld(t, 3), []probe{{onP(1), 4800}, {onP(2), 6400}}},
	} {
		ref := referenceMemoryGuard(w.cl, extra)
		guarded := *w.ms
		guarded.Cluster = describe(w.cl, 64, 24<<20)
		if err := guarded.Validate(); err != nil {
			t.Fatal(err)
		}
		check := func(cfg cluster.Configuration, n float64) {
			t.Helper()
			base, err := w.ms.Estimate(cfg, n)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, cfg, err)
			}
			want := math.Float64bits(base * ref(cfg, n))
			est, err := guarded.Estimate(cfg, n)
			if err != nil || math.Float64bits(est) != want {
				t.Fatalf("%s %s N=%v: Estimate %v (%v), reference %v", w.name, cfg, n, est, err, math.Float64frombits(want))
			}
			if tau, ok := guarded.Compile(n).Tau(cfg); !ok || math.Float64bits(tau) != want {
				t.Fatalf("%s %s N=%v: Tau %v (%v), reference %v", w.name, cfg, n, tau, ok, math.Float64frombits(want))
			}
		}
		flips := 0
		for trial := 0; trial < 300; trial++ {
			cfg := cluster.Configuration{Use: make([]cluster.ClassUse, len(w.cl.Classes))}
			for ci := range cfg.Use {
				if pes := rng.Intn(w.cl.Classes[ci].PEs() + 2); pes > 0 {
					cfg.Use[ci] = cluster.ClassUse{PEs: pes, Procs: 1 + rng.Intn(3)}
				}
			}
			if cfg.TotalProcs() == 0 {
				continue
			}
			check(cfg, float64(400+rng.Intn(19601)))
			// Bisect to the adjacent float64 sizes between which the
			// configuration stops fitting, and probe around them.
			lo, hi := 400.0, 20000.0
			if ref(cfg, lo) != 1 || ref(cfg, hi) == 1 {
				continue
			}
			for math.Nextafter(lo, hi) < hi {
				if mid := lo + (hi-lo)/2; ref(cfg, mid) == 1 {
					lo = mid
				} else {
					hi = mid
				}
			}
			flips++
			for _, n := range []float64{math.Nextafter(lo, 0), lo, hi, math.Nextafter(hi, 1e9), math.Floor(lo), math.Ceil(hi)} {
				check(cfg, n)
			}
		}
		if flips < 50 {
			t.Fatalf("%s: only %d configurations flipped inside the size range", w.name, flips)
		}
		for _, e := range w.edges {
			check(e.cfg, e.n)
		}

		// The same verdicts through the tables: a search of the cluster's
		// whole configuration grid ranks exactly the candidates the closure
		// keeps, by the unguarded τ, at full depth and pruned to three.
		space := cluster.Space{}
		for ci := range w.cl.Classes {
			pes := make([]int, w.cl.Classes[ci].PEs()+2)
			for i := range pes {
				pes[i] = i
			}
			space.PEChoices = append(space.PEChoices, pes)
			space.ProcChoices = append(space.ProcChoices, []int{1, 2, 3})
		}
		grid, err := space.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []float64{400, 6400, 9600, 12800.5, 16000, 20000} {
			plain := w.ms.Compile(n)
			var want []parallel.Candidate
			grid.Visit(func(idx int64, cfg cluster.Configuration) bool {
				if cfg.TotalProcs() == 0 {
					return true
				}
				if tau, ok := plain.Tau(cfg); ok && ref(cfg, n) == 1 {
					want = append(want, parallel.Candidate{Index: idx, Score: tau})
				}
				return true
			})
			slices.SortFunc(want, func(a, b parallel.Candidate) int {
				if a.Score != b.Score {
					if a.Score < b.Score {
						return -1
					}
					return 1
				}
				return int(a.Index - b.Index)
			})
			ev := guarded.Compile(n)
			for _, k := range []int{int(grid.Size()), 3} {
				for _, workers := range []int{1, 4} {
					got, err := ev.Search(grid, SearchOptions{Workers: workers, TopK: k})
					label := fmt.Sprintf("%s N=%v k=%d w=%d", w.name, n, k, workers)
					checkAgainst(t, label, grid, got, err, want[:min(k, len(want))], grid.Size()-1, false)
				}
			}
		}
	}
}

// TestMemoryRuleAllocationFree pins what the closure could not offer: Tau
// and a steady-state SearchReuse on a descriptor-bearing evaluator allocate
// nothing.
func TestMemoryRuleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ev := richWorld(t, tightDescriptor()).Compile(6400)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 3}, {PEs: 8, Procs: 1}}}
	if allocs := testing.AllocsPerRun(200, func() { ev.Tau(cfg) }); allocs != 0 {
		t.Fatalf("Tau allocates %v times per call", allocs)
	}
	grid, err := cluster.PaperEvaluationSpace().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r Reusable
	opts := SearchOptions{TopK: 3}
	search := func() {
		if _, err := ev.SearchReuse(grid, opts, &r); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if allocs := testing.AllocsPerRun(100, search); allocs != 0 {
		t.Fatalf("steady-state SearchReuse allocates %v times per call", allocs)
	}
}
