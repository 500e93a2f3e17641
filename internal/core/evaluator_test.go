package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/stats"
)

// richWorld builds a two-class model set exercising every estimation
// feature: fitted P-T bins for M = 1..4, composed class-0 P-T models, a
// §4.1 adjustment on both classes, and (optionally) a cluster descriptor.
func richWorld(t *testing.T, desc *cluster.Descriptor) *ModelSet {
	t.Helper()
	var samples []Sample
	for m := 1; m <= 4; m++ {
		for _, pe := range []int{1, 2, 4, 8} {
			p := pe * m
			for _, n := range paperNs {
				nf := float64(n)
				ta := 6e-10*nf*nf*nf/float64(p) + 0.2
				tc := 1e-9 * nf * nf
				if pe > 1 {
					tc = 2e-9*nf*nf*float64(p) + 1e-8*nf*nf/float64(p) + 0.05
				}
				samples = append(samples, Sample{
					Config: cluster.Configuration{Use: []cluster.ClassUse{{}, {PEs: pe, Procs: m}}},
					N:      n, P: p, Class: 1, M: m, Ta: ta, Tc: tc, Wall: ta + tc,
				})
			}
		}
		for _, n := range paperNs {
			nf := float64(n)
			ta := 6e-10*nf*nf*nf/float64(m)/4 + 0.1
			tc := 0.25e-9 * nf * nf
			samples = append(samples, Sample{
				Config: cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: m}, {}}},
				N:      n, P: m, Class: 0, M: m, Ta: ta, Tc: tc, Wall: ta + tc,
			})
		}
	}
	ms, err := Build(2, samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ComposeClass(0, 1, 0.25, 0.85); err != nil {
		t.Fatal(err)
	}
	ms.AdjustMinM = 2
	ms.Adjust = map[int]*stats.LinearTransform{
		0: {A: 0.93, B: 0.4},
		1: {A: 1.07, B: -0.2},
	}
	ms.Cluster = desc
	return ms
}

// evalSpaces returns the paper evaluation space plus deterministic random
// spaces (including zero and duplicate choices) for property tests.
func evalSpaces() []cluster.Space {
	spaces := []cluster.Space{cluster.PaperEvaluationSpace()}
	rng := rand.New(rand.NewSource(7))
	pick := func() []int {
		vals := []int{0, 0, 1, 2, 3, 4, 6, 8}
		out := make([]int, 1+rng.Intn(4))
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
		return out
	}
	for i := 0; i < 8; i++ {
		spaces = append(spaces, cluster.Space{
			PEChoices:   [][]int{pick(), pick()},
			ProcChoices: [][]int{pick(), pick()},
		})
	}
	return spaces
}

// TestEvaluatorBitIdenticalToModelSet is the core compilation contract:
// Tau returns bit-for-bit the value ModelSet.Estimate returns, and reports
// unscorable exactly where Estimate errors, over the paper evaluation space and
// randomized spaces, at several problem sizes, with and without a cluster
// descriptor (one tight enough to exclude, fit and fail to place).
func TestEvaluatorBitIdenticalToModelSet(t *testing.T) {
	for name, ms := range map[string]*ModelSet{
		"noGuard": richWorld(t, nil),
		"guarded": richWorld(t, tightDescriptor()),
	} {
		excluded := 0
		for _, n := range []float64{400, 3200, 6400, 9600} {
			ev := ms.Compile(n)
			for si, space := range evalSpaces() {
				cfgs, err := space.Enumerate()
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range cfgs {
					want, wantErr := ms.Estimate(cfg, n)
					tau, ok := ev.Tau(cfg)
					if ok != (wantErr == nil) {
						t.Fatalf("%s space %d n=%v %s: Tau ok=%v, Estimate err=%v", name, si, n, cfg, ok, wantErr)
					}
					if ok && tau != want {
						t.Fatalf("%s space %d n=%v %s: Tau %v, Estimate %v (diff %g)", name, si, n, cfg, tau, want, tau-want)
					}
					if ok && math.IsInf(tau, 1) {
						excluded++
					}
				}
			}
		}
		if (excluded > 0) != (ms.Cluster != nil) {
			t.Fatalf("%s: %d configurations excluded", name, excluded)
		}
	}
}

// TestEvaluatorEstimateErrors pins the evaluator's unscorable cases to
// ModelSet.Estimate's error cases.
func TestEvaluatorEstimateErrors(t *testing.T) {
	ms := richWorld(t, nil)
	ev := ms.Compile(3200)
	cases := []cluster.Configuration{
		{},                                // class-count mismatch
		{Use: []cluster.ClassUse{{}, {}}}, // empty
		{Use: []cluster.ClassUse{{}, {PEs: 1, Procs: 9}}},                  // no N-T bin
		{Use: []cluster.ClassUse{{}, {PEs: 2, Procs: 9}}},                  // no P-T bin
		{Use: []cluster.ClassUse{{PEs: -3, Procs: 2}, {PEs: 0, Procs: 5}}}, // normalizes to empty
	}
	for _, cfg := range cases {
		if _, err := ms.Estimate(cfg, 3200); !errors.Is(err, ErrNoModel) {
			t.Fatalf("%s: model set error %v does not wrap ErrNoModel", cfg, err)
		}
		if tau, ok := ev.Tau(cfg); ok {
			t.Fatalf("%s: Tau scored %v where Estimate errors", cfg, tau)
		}
		if _, _, err := ev.Optimize([]cluster.Configuration{cfg}); !errors.Is(err, ErrNoModel) {
			t.Fatalf("%s: Optimize over the lone unscorable candidate: err = %v", cfg, err)
		}
	}
}

// TestEvaluatorSnapshotsModelSet documents that Compile is a snapshot:
// later mutations of the model set are not reflected.
func TestEvaluatorSnapshotsModelSet(t *testing.T) {
	ms := richWorld(t, nil)
	// P = 18 extrapolates class 1's M = 2 bin (fitted up to P = 16), so the
	// §4.1 adjustment participates in the estimate and removing it matters.
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 8, Procs: 2}}}
	ev := ms.Compile(6400)
	before, ok := ev.Tau(cfg)
	if !ok {
		t.Fatal("unscorable")
	}
	ms.Adjust = nil // mutate after compilation
	after, ok := ev.Tau(cfg)
	if !ok || after != before {
		t.Fatalf("compiled estimate changed after model-set mutation: %v -> %v (%v)", before, after, ok)
	}
	fresh, ok := ms.Compile(6400).Tau(cfg)
	if !ok {
		t.Fatal("unscorable after mutation")
	}
	if fresh == before {
		t.Fatal("mutation had no effect on a fresh compile; test is vacuous")
	}
}

// TestEvaluatorZeroAlloc asserts the compiled scoring path allocates
// nothing per candidate: on the two-class model with composed P-T and the
// §4.1 adjustment, and on a three-class candidate of the six-class model
// behind the 10⁶-candidate search grid.
func TestEvaluatorZeroAlloc(t *testing.T) {
	sixClass := cluster.Configuration{Use: make([]cluster.ClassUse, 6)}
	sixClass.Use[0] = cluster.ClassUse{PEs: 2, Procs: 2}
	sixClass.Use[3] = cluster.ClassUse{PEs: 4, Procs: 1}
	sixClass.Use[5] = cluster.ClassUse{PEs: 1, Procs: 3}
	for _, tc := range []struct {
		ev  *Evaluator
		cfg cluster.Configuration
	}{
		{richWorld(t, nil).Compile(6400), cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 4, Procs: 2}}}},
		{multiClassWorld(t, 6).Compile(3200), sixClass},
	} {
		avg := testing.AllocsPerRun(1000, func() {
			if _, ok := tc.ev.Tau(tc.cfg); !ok {
				t.Fatal("unscorable")
			}
		})
		if avg != 0 {
			t.Fatalf("%s: Tau allocates %.2f per call", tc.cfg, avg)
		}
	}
}
