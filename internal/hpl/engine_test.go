package hpl

import (
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/machine"
	"hetmodel/internal/simnet"
	"hetmodel/internal/vmpi"
)

// sameBits compares two results field by field with Float64bits: every
// RankTiming field, the class aggregates, WallTime and Gflops.
func sameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	eq := func(what string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %v (%#x), want %v (%#x)", label, what, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got.P != want.P || len(got.PerRank) != len(want.PerRank) || len(got.PerClass) != len(want.PerClass) {
		t.Fatalf("%s: shape differs: P %d/%d", label, got.P, want.P)
	}
	for r := range want.PerRank {
		g, w := got.PerRank[r], want.PerRank[r]
		eq("Pfact", g.Pfact, w.Pfact)
		eq("Mxswp", g.Mxswp, w.Mxswp)
		eq("Bcast", g.Bcast, w.Bcast)
		eq("Laswp", g.Laswp, w.Laswp)
		eq("Update", g.Update, w.Update)
		eq("Uptrsv", g.Uptrsv, w.Uptrsv)
		eq("Wall", g.Wall, w.Wall)
	}
	for ci := range want.PerClass {
		g, w := got.PerClass[ci], want.PerClass[ci]
		if g.Used != w.Used {
			t.Fatalf("%s: class %d Used differs", label, ci)
		}
		eq("class Ta", g.Ta, w.Ta)
		eq("class Tc", g.Tc, w.Tc)
		eq("class Wall", g.Wall, w.Wall)
	}
	eq("WallTime", got.WallTime, want.WallTime)
	eq("Gflops", got.Gflops, want.Gflops)
}

// foldBits folds the Float64bits of every timing field of r — per-rank
// phases, class aggregates, WallTime, Gflops and Residual — into h.
func foldBits(h hash.Hash64, r *Result) {
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, t := range r.PerRank {
		for _, v := range [...]float64{t.Pfact, t.Mxswp, t.Bcast, t.Laswp, t.Update, t.Uptrsv, t.Wall} {
			put(v)
		}
	}
	for _, c := range r.PerClass {
		used := 0.0
		if c.Used {
			used = 1
		}
		for _, v := range [...]float64{used, c.Ta, c.Tc, c.Wall} {
			put(v)
		}
	}
	for _, v := range [...]float64{r.WallTime, r.Gflops, r.Residual} {
		put(v)
	}
}

// sweepConfigs returns the paper's 62 evaluation candidates and both
// construction spaces (the Basic grid, which contains NL's and NS's),
// de-duplicated.
func sweepConfigs(t *testing.T) []cluster.Configuration {
	t.Helper()
	athlon, pii := cluster.PaperConstructionSpace([]int{1, 2, 3, 4, 5, 6, 7, 8})
	seen := map[string]bool{}
	var out []cluster.Configuration
	for _, sp := range []cluster.Space{cluster.PaperEvaluationSpace(), athlon, pii} {
		cfgs, err := sp.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			if k := c.Key(); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// threeClassCluster is a machine beyond the paper's two classes: one fast
// node, two mid dual nodes, three slow dual nodes.
func threeClassCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	mid := machine.NewPentiumII()
	mid.Name = "Mid-600"
	mid.GemmPeak *= 2
	mid.PanelPeak *= 2
	mkNodes := func(pe *machine.PEType, cpus, count int) []*machine.Node {
		var out []*machine.Node
		for i := 0; i < count; i++ {
			out = append(out, &machine.Node{Name: pe.Name, Type: pe, CPUs: cpus, MemoryBytes: 768 << 20})
		}
		return out
	}
	fabric, err := simnet.NewFabric(simnet.NewMPICH122(), simnet.NewFast100TX())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New([]cluster.Class{
		{Name: "fast", Nodes: mkNodes(machine.NewAthlon(), 1, 1)},
		{Name: "mid", Nodes: mkNodes(mid, 2, 2)},
		{Name: "slow", Nodes: mkNodes(machine.NewPentiumII(), 2, 3)},
	}, fabric)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// variant is one setting of the run options the engine must reproduce.
type variant struct {
	alg       vmpi.BcastAlg
	lookahead bool
	noisy     bool
}

func (v variant) params(n int) Params {
	p := Params{N: n, Bcast: v.alg, Lookahead: v.lookahead, Seed: int64(n)}
	if !v.noisy {
		p.Noise, p.NoiseAbs = -1, -1
	}
	return p
}

func allVariants() []variant {
	var out []variant
	for _, alg := range []vmpi.BcastAlg{vmpi.BcastRing, vmpi.BcastBinomial} {
		for _, look := range []bool{false, true} {
			for _, noisy := range []bool{true, false} {
				out = append(out, variant{alg, look, noisy})
			}
		}
	}
	return out
}

// sweepDigest is foldBits over the engine's side of every pair of the full
// TestEngineMatchesWorld sweep (4 896 paper pairs, then 72 three-class
// pairs), recorded while the engine and the vmpi world shared no code. The
// two drivers now share vmpi's scheduler and broadcast tree, so a fault
// there would move both sides alike; the digest pins the clocks themselves.
const sweepDigest = 0x1cd7a56f6ce27f87

// TestEngineMatchesWorld is the engine's contract: on every input the paper
// pipeline feeds it, and on the shapes that stress its control flow, the
// engine's Result equals the vmpi world's to the bit. Each (configuration,
// variant, library) runs at sizesPerCase of the campaign and evaluation
// sizes, rotating through the list so that every size meets every variant.
func TestEngineMatchesWorld(t *testing.T) {
	sizes := []int{400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400, 8000, 9600}
	sizesPerCase := 3
	if testing.Short() {
		sizes, sizesPerCase = sizes[:7], 1
	}
	digest := fnv.New64a()
	pairs := 0
	pair := func(label string, cl *cluster.Cluster, c cluster.Configuration, p Params) {
		t.Helper()
		want, err := run(cl, c, p, false)
		if err != nil {
			t.Fatalf("%s: world: %v", label, err)
		}
		got, err := run(cl, c, p, true)
		if err != nil {
			t.Fatalf("%s: engine: %v", label, err)
		}
		sameBits(t, label, got, want)
		foldBits(digest, got)
		pairs++
	}

	cfgs := sweepConfigs(t)
	if len(cfgs) != 102 {
		t.Fatalf("sweep covers %d configurations, want 102 (62 evaluation + 54 construction − 14 shared)", len(cfgs))
	}
	next := 0
	for _, lib := range []*simnet.CommLibrary{simnet.NewMPICH122(), simnet.NewMPICH121()} {
		cl, err := cluster.NewPaper(lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			for _, v := range allVariants() {
				for i := 0; i < sizesPerCase; i++ {
					n := sizes[next%len(sizes)]
					next++
					pair(lib.Name+" "+c.String(), cl, c, v.params(n))
				}
			}
		}
	}

	// Three classes, N not a multiple of NB (partial last panel), and more
	// ranks than panels (ranks that own nothing and skip the chain).
	three := threeClassCluster(t)
	for _, c := range []cluster.Configuration{
		{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 4, Procs: 1}, {PEs: 6, Procs: 2}}},
		{Use: []cluster.ClassUse{{PEs: 1, Procs: 1}, {PEs: 3, Procs: 3}, {PEs: 5, Procs: 1}}},
		{Use: []cluster.ClassUse{{PEs: 0, Procs: 1}, {PEs: 2, Procs: 1}, {PEs: 1, Procs: 1}}},
	} {
		for _, v := range allVariants() {
			for _, n := range []int{1000, 331, 70} { // 16, 6 and 2 panels of 64
				pair("three-class "+c.String(), three, c, v.params(n))
			}
		}
	}
	if testing.Short() {
		return
	}
	if pairs != 4968 || digest.Sum64() != sweepDigest {
		t.Fatalf("%d pairs fold to %#016x, want 4968 pairs folding to %#016x", pairs, digest.Sum64(), uint64(sweepDigest))
	}
}

// TestNumericMatchesPhantom: the numeric run (vmpi world, real panels) and
// the phantom run (engine) of one configuration and seed report the same
// timings to the bit — data movement never feeds back into the clocks.
func TestNumericMatchesPhantom(t *testing.T) {
	cl := paperCluster(t)
	for _, c := range []cluster.Configuration{cfg(1, 1, 0, 0), cfg(1, 2, 3, 1), cfg(0, 0, 5, 1), cfg(1, 1, 8, 1)} {
		for _, v := range allVariants() {
			p := v.params(120)
			p.NB, p.Seed = 16, 11
			phantom, err := Run(cl, c, p)
			if err != nil {
				t.Fatal(err)
			}
			p.Numeric = true
			numeric, err := Run(cl, c, p)
			if err != nil {
				t.Fatal(err)
			}
			if numeric.Residual > 16 {
				t.Fatalf("%s: residual %v", c, numeric.Residual)
			}
			sameBits(t, c.String(), phantom, numeric)
		}
	}
}

// A mismatched program must come back as an error, never a hang.
func TestEngineReportsDeadlock(t *testing.T) {
	pl, err := paperCluster(t).Place(cfg(1, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// run schedules step over a fresh engine; a blocked rank reports the
	// rank it waits on.
	run := func(step func(e *engine, rank int) bool) error {
		e := newEngine(pl)
		return vmpi.Schedule(pl.P(), &e.ops, func(rank int) int {
			if step(e, rank) {
				return -1
			}
			return e.ranks[rank].waitOn
		})
	}
	t.Run("receive nobody sends", func(t *testing.T) {
		err := run(func(e *engine, rank int) bool {
			if rank != 0 {
				return true
			}
			_, ok := e.recv(0, 2, 99)
			return ok
		})
		if !errors.Is(err, vmpi.ErrDeadlock) {
			t.Fatalf("err = %v, want deadlock", err)
		}
	})
	t.Run("receive cycle", func(t *testing.T) {
		err := run(func(e *engine, rank int) bool {
			_, ok := e.recv(rank, (rank+1)%pl.P(), 7)
			return ok
		})
		if !errors.Is(err, vmpi.ErrDeadlock) {
			t.Fatalf("err = %v, want deadlock", err)
		}
	})
	t.Run("rendezvous never received", func(t *testing.T) {
		err := run(func(e *engine, rank int) bool {
			if rank != 1 {
				return true
			}
			// 1 MiB is above every eager limit: the send waits for a
			// receive that no rank posts.
			_, ok := e.send(1, 2, 7, 1<<20)
			return ok
		})
		if !errors.Is(err, vmpi.ErrDeadlock) {
			t.Fatalf("err = %v, want deadlock", err)
		}
	})
}

// A phantom run starts no goroutine, and what it allocates depends on P,
// not on how many messages it simulates.
func TestPhantomRunAllocationAndGoroutines(t *testing.T) {
	cl := paperCluster(t)
	c := cfg(1, 2, 8, 1)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cl, c, Params{N: n, Lookahead: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1600), allocs(6400); small != large {
		t.Fatalf("allocations grow with N: %v at N=1600, %v at N=6400", small, large)
	}
	// Sample the goroutine count at every scheduling step of a run.
	pl, err := cl.Place(c)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{N: 1600}.withDefaults()
	costs := newPhaseCosts(pl, c, params, NewLayout(params.N, params.NB, pl.P()))
	h := newHPLProgram(pl, costs, params.Bcast, make([]RankTiming, pl.P()))
	before := runtime.NumGoroutine()
	steps := 0
	if err := vmpi.Schedule(pl.P(), &h.e.ops, func(rank int) int {
		steps++
		if g := runtime.NumGoroutine(); g != before {
			t.Fatalf("goroutines went from %d to %d during a phantom run", before, g)
		}
		return h.step(rank)
	}); err != nil {
		t.Fatal(err)
	}
	if steps < pl.P() {
		t.Fatalf("only %d scheduling steps for %d ranks", steps, pl.P())
	}
}
