package bench

import (
	"sync"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
)

// This file holds the large-search-space workloads: a synthetic six-class
// model whose configuration space has exactly one million candidates, swept
// through the pre-evaluator per-candidate path (Sweep1MEstimate) and the
// compiled streaming search (Sweep1MSearch), plus the evaluator scoring
// micro-benchmark (EvaluatorTau). Both sweeps run sequentially so the ratio
// measures the algorithmic speedup (compilation + pruning), not parallelism.

// sweepSpace is the six-class million-configuration grid: per class,
// PE counts {0, 1, 2, 4} × process counts {1, 2, 3} canonicalize to 10
// distinct (PEs, Procs) pairs, and 10^6 grid points.
func sweepSpace() cluster.Space {
	s := cluster.Space{PEChoices: make([][]int, 6), ProcChoices: make([][]int, 6)}
	for ci := range s.PEChoices {
		s.PEChoices[ci] = []int{0, 1, 2, 4}
		s.ProcChoices[ci] = []int{1, 2, 3}
	}
	return s
}

// sweepSamples generates the six-class training set: every class measured at
// M = 1..maxM on 1, 2 and 4 PEs over five problem sizes, so each class has
// full single-PE N-T bins and directly-fitted P-T bins. Class c runs at a
// speed factor 1/(1 + c/4), making the τ landscape non-trivial.
func sweepSamples(maxM int) []core.Sample {
	var samples []core.Sample
	for class := 0; class < 6; class++ {
		speed := 1 + float64(class)/4
		for m := 1; m <= maxM; m++ {
			for _, pe := range []int{1, 2, 4} {
				p := pe * m
				for _, n := range []int{400, 800, 1600, 2400, 3200} {
					nf := float64(n)
					ta := 6e-10*nf*nf*nf/float64(p)*speed + 0.2
					tc := 1e-9 * nf * nf
					if pe > 1 {
						tc = 2e-9*nf*nf*float64(p) + 1e-8*nf*nf/float64(p) + 0.05
					}
					use := make([]cluster.ClassUse, 6)
					use[class] = cluster.ClassUse{PEs: pe, Procs: m}
					samples = append(samples, core.Sample{
						Config: cluster.Configuration{Use: use},
						N:      n, P: p, Class: class, M: m,
						Ta: ta, Tc: tc, Wall: ta + tc,
					})
				}
			}
		}
	}
	return samples
}

// sixClassModel fits the model set covering the sweep space (M = 1..3,
// matching sweepSpace's process choices).
var sixClassModel = sync.OnceValue(func() *core.ModelSet {
	ms, err := core.Build(6, sweepSamples(3))
	if err != nil {
		panic(err)
	}
	return ms
})

// sweepCandidates materializes the million configurations once, for the
// legacy path (the per-candidate ModelSet.Estimate loop needs the slice).
var sweepCandidates = sync.OnceValue(func() []cluster.Configuration {
	cfgs, err := sweepSpace().Enumerate()
	if err != nil {
		panic(err)
	}
	return cfgs
})

func sweep1MEstimate(b *testing.B) {
	ms := sixClassModel()
	cfgs := sweepCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The pre-evaluator hot loop: per-candidate Normalize + map lookups
		// + polynomial evaluation through ModelSet.Estimate, winner by
		// sequential scan (what Optimize compiled down to before the
		// evaluator existed).
		bestTau := 0.0
		found := false
		for _, cfg := range cfgs {
			tau, err := ms.Estimate(cfg, 3200)
			if err != nil {
				continue
			}
			if !found || tau < bestTau {
				bestTau, found = tau, true
			}
		}
		if !found {
			b.Fatal("no scorable candidate")
		}
	}
}

func sweep1MSearch(b *testing.B) {
	ms := sixClassModel()
	space := sweepSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ms.OptimizeSpace(space, 3200, core.SearchOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Best) == 0 {
			b.Fatal("no winner")
		}
	}
}

func evaluatorTau(b *testing.B) {
	ev := sixClassModel().Compile(3200)
	cfg := cluster.Configuration{Use: make([]cluster.ClassUse, 6)}
	cfg.Use[0] = cluster.ClassUse{PEs: 2, Procs: 2}
	cfg.Use[3] = cluster.ClassUse{PEs: 4, Procs: 1}
	cfg.Use[5] = cluster.ClassUse{PEs: 1, Procs: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ev.Tau(cfg); !ok {
			b.Fatal("unscorable")
		}
	}
}

func sweep1MTopK8(b *testing.B) {
	ms := sixClassModel()
	space := sweepSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ms.OptimizeSpace(space, 3200, core.SearchOptions{Workers: 1, TopK: 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Best) != 8 {
			b.Fatalf("%d winners", len(res.Best))
		}
	}
}

func sweep1MConstrained(b *testing.B) {
	ms := sixClassModel()
	space := sweepSpace()
	// A realistic serving-layer restriction: four of the six classes allowed
	// and a total-process cap — the kernel prunes the excluded subtrees
	// structurally instead of decoding and filtering a million candidates.
	cons := &core.Constraints{Classes: []int{0, 1, 2, 3}, MaxTotalProcs: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ms.OptimizeSpace(space, 3200, core.SearchOptions{Workers: 1, Constraints: cons})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Best) == 0 {
			b.Fatal("no winner")
		}
	}
}

func searchKernel1M(b *testing.B) {
	ev := sixClassModel().Compile(3200)
	grid, err := sweepSpace().Compile()
	if err != nil {
		b.Fatal(err)
	}
	var r core.Reusable
	opts := core.SearchOptions{TopK: 8}
	// Warm the reused buffers and the evaluator's grid-tables cache so the
	// timed loop measures the steady-state kernel (0 allocs/op, which the
	// benchrun alloc gate pins).
	if _, err := ev.SearchReuse(grid, opts, &r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ev.SearchReuse(grid, opts, &r)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Best) != 8 {
			b.Fatalf("%d winners", len(res.Best))
		}
	}
}
