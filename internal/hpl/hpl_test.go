package hpl

import (
	"errors"
	"math"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/simnet"
	"hetmodel/internal/vmpi"
)

func paperCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.NewPaper(simnet.NewMPICH122())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func cfg(p1, m1, p2, m2 int) cluster.Configuration {
	return cluster.Configuration{Use: []cluster.ClassUse{{PEs: p1, Procs: m1}, {PEs: p2, Procs: m2}}}
}

func TestLayout(t *testing.T) {
	lay := NewLayout(1000, 64, 3)
	if lay.NumPanels() != 16 {
		t.Fatalf("numPanels = %d", lay.NumPanels())
	}
	if lay.Width(15) != 1000-15*64 {
		t.Fatalf("last width = %d", lay.Width(15))
	}
	if lay.Owner(4) != 1 {
		t.Fatalf("owner(4) = %d", lay.Owner(4))
	}
	total := 0
	for r := 0; r < 3; r++ {
		total += lay.LocalCols(r)
	}
	if total != 1000 {
		t.Fatalf("local cols sum = %d", total)
	}
	if lay.LocalOffset(7) != 2*64 { // blocks 1, 4 precede 7 for rank 1
		t.Fatalf("localOffset(7) = %d", lay.LocalOffset(7))
	}
	// Trailing columns of rank 0 after panel 0: blocks 3,6,9,12,15.
	want := 64*5 + (1000 - 15*64) - 64 // blocks 3,6,9,12 full + 15 partial... recompute below
	_ = want
	got := lay.TrailingLocalCols(0, 0)
	manual := 0
	for jj := 0; jj < lay.NumPanels(); jj += 3 {
		if jj > 0 {
			manual += lay.Width(jj)
		}
	}
	if got != manual {
		t.Fatalf("trailingLocalCols = %d, want %d", got, manual)
	}
}

func TestRunValidatesParams(t *testing.T) {
	cl := paperCluster(t)
	if _, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 0}); !errors.Is(err, ErrBadParams) {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(cl, cfg(1, 6, 8, 6), Params{N: 10}); !errors.Is(err, ErrBadParams) {
		t.Fatal("N < P accepted")
	}
	if _, err := Run(cl, cfg(9, 1, 0, 0), Params{N: 100}); err == nil {
		t.Fatal("over-allocation accepted")
	}
	// Non-finite floats would surface as a non-finite WallTime with a nil
	// error — a sample the campaign would hand straight to the fit.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, p := range map[string]Params{
			"Noise":          {N: 100, Noise: bad},
			"NoiseAbs":       {N: 100, NoiseAbs: bad},
			"WorkspaceBytes": {N: 100, WorkspaceBytes: bad},
		} {
			if res, err := Run(cl, cfg(1, 1, 2, 1), p); !errors.Is(err, ErrBadParams) {
				t.Fatalf("%s = %v accepted: result %+v, err %v", name, bad, res, err)
			}
		}
	}
	if _, err := Run(cl, cfg(1, 1, 2, 1), Params{N: 100, Bcast: vmpi.BcastAlg(7)}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("unknown broadcast algorithm: err = %v", err)
	}
}

func TestNumericSingleRankResidual(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 96, NB: 16, Numeric: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 16 {
		t.Fatalf("residual = %v", res.Residual)
	}
	if len(res.Solution) != 96 {
		t.Fatalf("solution length %d", len(res.Solution))
	}
}

func TestNumericDistributedMatchesSingleRank(t *testing.T) {
	cl := paperCluster(t)
	single, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 120, NB: 16, Numeric: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(cl, cfg(1, 1, 4, 1), Params{N: 120, NB: 16, Numeric: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Residual > 16 {
		t.Fatalf("distributed residual = %v", multi.Residual)
	}
	// Identical matrix and exact arithmetic path → solutions agree tightly.
	for i := range single.Solution {
		if math.Abs(single.Solution[i]-multi.Solution[i]) > 1e-8 {
			t.Fatalf("x[%d]: single %v vs multi %v", i, single.Solution[i], multi.Solution[i])
		}
	}
}

func TestNumericMultiprocessResidual(t *testing.T) {
	cl := paperCluster(t)
	// 2 processes on the Athlon + 2 P-II: 4 ranks, multiprocessing on.
	res, err := Run(cl, cfg(1, 2, 2, 1), Params{N: 128, NB: 16, Numeric: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 16 {
		t.Fatalf("residual = %v", res.Residual)
	}
	if res.P != 4 {
		t.Fatalf("P = %d", res.P)
	}
}

func TestNumericBinomialBcastResidual(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(1, 1, 3, 1), Params{
		N: 100, NB: 16, Numeric: true, Seed: 3, Bcast: vmpi.BcastBinomial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 16 {
		t.Fatalf("residual = %v", res.Residual)
	}
}

func TestNumericPartialLastPanel(t *testing.T) {
	cl := paperCluster(t)
	// N not a multiple of NB exercises the partial final panel.
	res, err := Run(cl, cfg(1, 1, 2, 1), Params{N: 101, NB: 16, Numeric: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 16 {
		t.Fatalf("residual = %v", res.Residual)
	}
}

func TestPhantomDeterministic(t *testing.T) {
	cl := paperCluster(t)
	a, err := Run(cl, cfg(1, 2, 8, 1), Params{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cl, cfg(1, 2, 8, 1), Params{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime {
		t.Fatalf("wall: %v vs %v", a.WallTime, b.WallTime)
	}
	for r := range a.PerRank {
		if a.PerRank[r] != b.PerRank[r] {
			t.Fatalf("rank %d timings differ", r)
		}
	}
}

func TestPhantomTimingStructure(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(1, 1, 8, 1), Params{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 {
		t.Fatal("nonpositive wall time")
	}
	maxWall := 0.0
	for r, rt := range res.PerRank {
		if rt.Pfact < 0 || rt.Mxswp < 0 || rt.Bcast < 0 || rt.Laswp < 0 || rt.Update < 0 || rt.Uptrsv < 0 {
			t.Fatalf("rank %d has negative phase: %+v", r, rt)
		}
		if rt.Update <= 0 {
			t.Fatalf("rank %d did no update work", r)
		}
		if rt.Wall > maxWall {
			maxWall = rt.Wall
		}
		// Phases are disjoint and cover the rank's clock.
		sum := rt.Pfact + rt.Mxswp + rt.Bcast + rt.Laswp + rt.Update + rt.Uptrsv
		if sum > rt.Wall+1e-9 {
			t.Fatalf("rank %d phases (%v) exceed wall (%v)", r, sum, rt.Wall)
		}
	}
	if math.Abs(maxWall-res.WallTime) > 1e-12 {
		t.Fatalf("WallTime %v != max rank wall %v", res.WallTime, maxWall)
	}
	// Both classes used; class aggregates populated.
	if !res.PerClass[0].Used || !res.PerClass[1].Used {
		t.Fatalf("classes not marked used: %+v", res.PerClass)
	}
	if res.PerClass[0].Ta <= 0 || res.PerClass[1].Tc <= 0 {
		t.Fatalf("class aggregates: %+v", res.PerClass)
	}
	if res.Gflops <= 0 {
		t.Fatal("no Gflops")
	}
	if !math.IsNaN(res.Residual) {
		t.Fatal("phantom run should have NaN residual")
	}
}

func TestSinglePEHasOnlyLocalComm(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 800})
	if err != nil {
		t.Fatal(err)
	}
	rt := res.PerRank[0]
	// No broadcasts or pivot exchange with P=1...
	if rt.Bcast != 0 || rt.Mxswp != 0 {
		t.Fatalf("single PE has comm: %+v", rt)
	}
	// ...but laswp (local row interchange) still happens.
	if rt.Laswp <= 0 {
		t.Fatal("laswp missing")
	}
}

func TestAthlonAboutFourTimesFasterThanPII(t *testing.T) {
	cl := paperCluster(t)
	a, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(cl, cfg(0, 0, 1, 1), Params{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	ratio := p.WallTime / a.WallTime
	if ratio < 3.5 || ratio > 6 {
		t.Fatalf("P-II/Athlon time ratio = %.2f, want ~4-5 (paper §4.1)", ratio)
	}
}

// Calibration: the simulated Athlon's HPL performance should land in the
// paper's ballpark (≈ 1.0–1.2 Gflops for mid-size N, Table 4: N=3200 in
// ≈ 20 s).
func TestAthlonCalibration(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 3200})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime < 14 || res.WallTime > 30 {
		t.Fatalf("Athlon N=3200 wall = %.1f s, want ≈ 20 s", res.WallTime)
	}
	if res.Gflops < 0.8 || res.Gflops > 1.4 {
		t.Fatalf("Athlon Gflops = %.2f, want ≈ 1.0-1.2", res.Gflops)
	}
}

// Figure 3(a) load imbalance: with one process everywhere, adding the Athlon
// to four P-IIs barely helps because HPL distributes work equally.
func TestLoadImbalanceShape(t *testing.T) {
	cl := paperCluster(t)
	const n = 4800
	hetero, err := Run(cl, cfg(1, 1, 4, 1), Params{N: n})
	if err != nil {
		t.Fatal(err)
	}
	fiveP2, err := Run(cl, cfg(0, 0, 5, 1), Params{N: n})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "Ath x 1 + P2 x 4" ≈ "P2 x 5" — within ~25%.
	ratio := hetero.WallTime / fiveP2.WallTime
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("hetero/homo ratio = %.2f, want ≈ 1 (Fig 3(a))", ratio)
	}
}

// Figure 3(b): multiprocessing on the Athlon relieves the imbalance at
// large N but hurts at small N.
func TestMultiprocessingCrossover(t *testing.T) {
	cl := paperCluster(t)
	wall := func(n, m1 int) float64 {
		res, err := Run(cl, cfg(1, m1, 4, 1), Params{N: n})
		if err != nil {
			t.Fatal(err)
		}
		return res.WallTime
	}
	// Large N: n=3 beats n=1.
	if w3, w1 := wall(8000, 3), wall(8000, 1); w3 >= w1 {
		t.Fatalf("N=8000: M1=3 (%.1f) should beat M1=1 (%.1f)", w3, w1)
	}
	// Small N: n=4 loses to n=1 (multiprocessing overhead dominates).
	if w4, w1 := wall(1200, 4), wall(1200, 1); w4 <= w1 {
		t.Fatalf("N=1200: M1=4 (%.1f) should lose to M1=1 (%.1f)", w4, w1)
	}
}

// Athlon-alone memory exhaustion at N=10000 (Fig 3(a)): Gflops drop vs 9600.
func TestAthlonMemoryWall(t *testing.T) {
	cl := paperCluster(t)
	r96, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 9600})
	if err != nil {
		t.Fatal(err)
	}
	r100, err := Run(cl, cfg(1, 1, 0, 0), Params{N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if r100.Gflops >= 0.8*r96.Gflops {
		t.Fatalf("no memory wall: 9600 → %.2f Gf, 10000 → %.2f Gf", r96.Gflops, r100.Gflops)
	}
	// Five P-IIs have aggregate memory and do not degrade.
	p96, _ := Run(cl, cfg(0, 0, 5, 1), Params{N: 9600})
	p100, _ := Run(cl, cfg(0, 0, 5, 1), Params{N: 10000})
	if p100.Gflops < 0.9*p96.Gflops {
		t.Fatalf("P2 x 5 should not degrade: %.2f → %.2f Gf", p96.Gflops, p100.Gflops)
	}
}

// MPICH version contrast (Fig 1): multiprocessing on one Athlon is crippled
// by the 1.2.1-like library but cheap with the 1.2.2-like one.
func TestMPICHVersionMultiprocessingContrast(t *testing.T) {
	run := func(lib *simnet.CommLibrary, m1 int) float64 {
		cl, err := cluster.NewPaper(lib)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cl, cfg(1, m1, 0, 0), Params{N: 2400})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gflops
	}
	loss121 := 1 - run(simnet.NewMPICH121(), 4)/run(simnet.NewMPICH121(), 1)
	loss122 := 1 - run(simnet.NewMPICH122(), 4)/run(simnet.NewMPICH122(), 1)
	if loss121 < 1.5*loss122 {
		t.Fatalf("Fig 1 contrast missing: loss 1.2.1 = %.1f%%, 1.2.2 = %.1f%%",
			loss121*100, loss122*100)
	}
	if loss121 < 0.5 {
		t.Fatalf("1.2.1 multiprocessing loss %.1f%% not drastic (paper Fig 1(a))", loss121*100)
	}
	if loss122 > 0.5 {
		t.Fatalf("1.2.2 multiprocessing loss %.1f%% too harsh (paper: much smaller)", loss122*100)
	}
	// Degradation grows with the number of co-resident processes (Fig 1).
	prev := run(simnet.NewMPICH121(), 1)
	for m := 2; m <= 4; m++ {
		cur := run(simnet.NewMPICH121(), m)
		if cur >= prev {
			t.Fatalf("1.2.1 Gflops should fall with n: n=%d %.2f >= n=%d %.2f", m, cur, m-1, prev)
		}
		prev = cur
	}
}

func TestWallTimeGrowsWithN(t *testing.T) {
	cl := paperCluster(t)
	prev := 0.0
	for _, n := range []int{400, 800, 1600, 3200} {
		res, err := Run(cl, cfg(1, 1, 8, 1), Params{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if res.WallTime <= prev {
			t.Fatalf("wall time not increasing at N=%d", n)
		}
		prev = res.WallTime
	}
}

func TestFlopCount(t *testing.T) {
	if got := FlopCount(100); math.Abs(got-(2.0/3.0*1e6+1.5e4)) > 1 {
		t.Fatalf("FlopCount(100) = %v", got)
	}
}
