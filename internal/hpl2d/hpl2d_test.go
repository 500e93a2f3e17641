package hpl2d

import (
	"errors"
	"math"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/hpl"
	"hetmodel/internal/simnet"
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

func TestGridArithmetic(t *testing.T) {
	g := NewGrid(1000, 64, 2, 3)
	if g.Panels() != 16 {
		t.Fatalf("panels = %d", g.Panels())
	}
	// Block (0,0) at (0,0); block row 1 owned by grid row 1; block col 4
	// owned by grid col 1.
	if g.RowOwner(64) != 1 || g.ColOwner(4*64) != 1 {
		t.Fatalf("owners wrong: %d %d", g.RowOwner(64), g.ColOwner(4*64))
	}
	// Row 128 (block 2) lives on grid row 0, local block 1 → local row 64.
	if g.LocalRowIndex(128) != 64 {
		t.Fatalf("LocalRowIndex(128) = %d", g.LocalRowIndex(128))
	}
	// Totals across the grid must cover the matrix.
	rows := 0
	for r := 0; r < g.Pr(); r++ {
		rows += g.LocalRows(r)
	}
	cols := 0
	for c := 0; c < g.Pc(); c++ {
		cols += g.LocalCols(c)
	}
	if rows != 1000 || cols != 1000 {
		t.Fatalf("coverage: rows %d cols %d", rows, cols)
	}
	// RowsBelow is consistent with a manual count.
	manual := 0
	for b := 0; b < g.Panels(); b++ {
		if b%2 != 1 {
			continue
		}
		lo, hi := b*64, (b+1)*64
		if hi > 1000 {
			hi = 1000
		}
		if lo < 200 {
			lo = 200
		}
		if lo < hi {
			manual += hi - lo
		}
	}
	if got := g.RowsBelow(1, 200); got != manual {
		t.Fatalf("RowsBelow = %d, want %d", got, manual)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewGrid(100, 64, 4, 1).Validate(); err == nil {
		t.Fatal("undersized grid accepted")
	}
}

func TestRunValidatesGrid(t *testing.T) {
	cl := paperCluster(t)
	if _, err := Run(cl, cfg(0, 0, 6, 1), Params{Params: hpl.Params{N: 512}, Pr: 2, Pc: 2}); !errors.Is(err, hpl.ErrBadParams) {
		t.Fatal("grid/P mismatch accepted")
	}
	if _, err := Run(cl, cfg(0, 0, 4, 1), Params{Params: hpl.Params{N: 0}, Pr: 2, Pc: 2}); !errors.Is(err, hpl.ErrBadParams) {
		t.Fatal("N=0 accepted")
	}
	// The 2D program has no lookahead branch; asking for one must not
	// come back as a run that silently did without it.
	if res, err := Run(cl, cfg(0, 0, 4, 1), Params{Params: hpl.Params{N: 512, Lookahead: true}, Pr: 2, Pc: 2}); !errors.Is(err, hpl.ErrBadParams) {
		t.Fatalf("lookahead accepted: result %v, err %v", res, err)
	}
}

// The absolute measurement jitter lands in each rank's update phase at the
// end of its run, as in the 1D run: every other phase is unchanged, and
// the update grows by the rank's offset, below 2·NoiseAbs.
func TestAbsoluteJitterInUpdate(t *testing.T) {
	cl := paperCluster(t)
	run := func(noiseAbs float64) *Result {
		res, err := Run(cl, cfg(1, 2, 6, 1), Params{Params: hpl.Params{N: 1600, Noise: -1, NoiseAbs: noiseAbs}, Pr: 2, Pc: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	quiet, noisy := run(-1), run(0)
	jittered := 0
	for r, q := range quiet.PerRank {
		n := noisy.PerRank[r]
		if n.Pfact != q.Pfact || n.Mxswp != q.Mxswp || n.Bcast != q.Bcast || n.Laswp != q.Laswp || n.Uptrsv != q.Uptrsv {
			t.Fatalf("rank %d: jitter moved a phase other than update: %+v vs %+v", r, n, q)
		}
		off := n.Update - q.Update
		if off < 0 || off >= 2*hpl.DefaultNoiseAbs || n.Wall < q.Wall {
			t.Fatalf("rank %d: update %v → %v, wall %v → %v", r, q.Update, n.Update, q.Wall, n.Wall)
		}
		if off > 0 {
			jittered++
		}
	}
	if jittered == 0 {
		t.Fatal("no rank carries an absolute jitter offset")
	}
}

// The central correctness check: a 2D-grid factorization of the same
// deterministic matrix solves the system correctly on several grid shapes.
func TestNumericResidualAcrossGrids(t *testing.T) {
	cl := paperCluster(t)
	cases := []struct {
		config cluster.Configuration
		pr, pc int
	}{
		{cfg(0, 0, 4, 1), 2, 2},
		{cfg(0, 0, 6, 1), 2, 3},
		{cfg(0, 0, 6, 1), 3, 2},
		{cfg(1, 1, 3, 1), 4, 1},
		{cfg(1, 2, 6, 1), 2, 4},
	}
	for _, tc := range cases {
		res, err := Run(cl, tc.config, Params{
			Params: hpl.Params{N: 128, NB: 16, Numeric: true, Seed: 9},
			Pr:     tc.pr, Pc: tc.pc,
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.pr, tc.pc, err)
		}
		if res.Residual > 16 {
			t.Fatalf("%dx%d residual = %v", tc.pr, tc.pc, res.Residual)
		}
	}
}

// 2D and 1D factorizations of the same matrix agree on the solution.
func TestMatches1DSolution(t *testing.T) {
	cl := paperCluster(t)
	oneD, err := hpl.Run(cl, cfg(0, 0, 4, 1), hpl.Params{N: 120, NB: 16, Numeric: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := Run(cl, cfg(0, 0, 4, 1), Params{
		Params: hpl.Params{N: 120, NB: 16, Numeric: true, Seed: 3},
		Pr:     2, Pc: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Different pivot search order can pick different (tied) pivots, so
	// compare solutions, not factors, with a numerical tolerance.
	for i := range oneD.Solution {
		if math.Abs(oneD.Solution[i]-twoD.Solution[i]) > 1e-6 {
			t.Fatalf("x[%d]: 1D %v vs 2D %v", i, oneD.Solution[i], twoD.Solution[i])
		}
	}
}

// On a 2D grid the pivot phases are real communication: Mxswp and Laswp
// are nonzero (they are identically zero or local-only on 1×P).
func TestPivotCommunicationIsReal(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, cfg(0, 0, 8, 1), Params{
		Params: hpl.Params{N: 1024}, Pr: 4, Pc: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mxswp, laswp float64
	for _, rt := range res.PerRank {
		mxswp += rt.Mxswp
		laswp += rt.Laswp
	}
	if mxswp <= 0 {
		t.Fatal("2D grid should have real mxswp communication")
	}
	if laswp <= 0 {
		t.Fatal("2D grid should have real laswp communication")
	}
	// And compare with the 1×8 grid: its mxswp is zero by construction.
	oneD, err := hpl.Run(cl, cfg(0, 0, 8, 1), hpl.Params{N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var mxswp1 float64
	for _, rt := range oneD.PerRank {
		mxswp1 += rt.Mxswp
	}
	if mxswp1 >= mxswp {
		t.Fatalf("1D mxswp (%v) should be far below 2D (%v)", mxswp1, mxswp)
	}
}

func TestPhantomDeterministic(t *testing.T) {
	cl := paperCluster(t)
	p := Params{Params: hpl.Params{N: 1024}, Pr: 2, Pc: 4}
	a, err := Run(cl, cfg(0, 0, 8, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cl, cfg(0, 0, 8, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime {
		t.Fatalf("nondeterministic: %v vs %v", a.WallTime, b.WallTime)
	}
}

// The paper's assumption check: on this small cluster the 1×P grid is a
// reasonable default — the 2D grid pays pivot communication on every panel
// column. (On huge clusters the tradeoff reverses; here we just verify both
// run and the difference is the pivot/broadcast structure, not a blowup.)
func TestGridShapeTradeoff(t *testing.T) {
	cl := paperCluster(t)
	flat, err := hpl.Run(cl, cfg(0, 0, 8, 1), hpl.Params{N: 2048})
	if err != nil {
		t.Fatal(err)
	}
	square, err := Run(cl, cfg(0, 0, 8, 1), Params{
		Params: hpl.Params{N: 2048}, Pr: 2, Pc: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := square.WallTime / flat.WallTime
	if ratio < 0.5 || ratio > 4 {
		t.Fatalf("grid tradeoff out of range: 2x4 %.1fs vs 1x8 %.1fs", square.WallTime, flat.WallTime)
	}
}

// Property: structural invariants hold across random grid shapes.
func TestStructuralInvariantsProperty(t *testing.T) {
	cl := paperCluster(t)
	shapes := [][3]int{ // {p1-procs..., pr, pc} choices over 8 PII PEs
		{8, 1, 8}, {8, 2, 4}, {8, 4, 2}, {8, 8, 1},
		{4, 2, 2}, {6, 2, 3}, {6, 3, 2},
	}
	for seed, s := range shapes {
		cfg := cfg(0, 0, s[0], 1)
		n := 768 + 128*seed
		res, err := Run(cl, cfg, Params{Params: hpl.Params{N: n}, Pr: s[1], Pc: s[2]})
		if err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		maxWall := 0.0
		for r, rt := range res.PerRank {
			if rt.Pfact < 0 || rt.Mxswp < 0 || rt.Bcast < 0 || rt.Laswp < 0 || rt.Update < 0 || rt.Uptrsv < 0 {
				t.Fatalf("shape %v rank %d negative phases: %+v", s, r, rt)
			}
			if rt.Ta()+rt.Tc() > rt.Wall+1e-9 {
				t.Fatalf("shape %v rank %d phases exceed wall", s, r)
			}
			if rt.Wall > maxWall {
				maxWall = rt.Wall
			}
		}
		if math.Abs(maxWall-res.WallTime) > 1e-12 {
			t.Fatalf("shape %v wall mismatch", s)
		}
	}
}
