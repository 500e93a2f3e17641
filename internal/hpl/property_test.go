package hpl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetmodel/internal/cluster"
	"hetmodel/internal/machine"
	"hetmodel/internal/simnet"
)

// randomConfig draws a valid paper-cluster configuration.
func randomConfig(rng *rand.Rand) cluster.Configuration {
	for {
		cfg := cluster.Configuration{Use: []cluster.ClassUse{
			{PEs: rng.Intn(2), Procs: 1 + rng.Intn(4)},
			{PEs: rng.Intn(9), Procs: 1 + rng.Intn(2)},
		}}
		if cfg.TotalProcs() > 0 {
			return cfg
		}
	}
}

// Property: the closed forms of LocalCols and TrailingLocalCols equal their
// definitions as sums over the rank's panels, including a partial last panel,
// more ranks than panels, and j outside the panel range.
func TestLayoutClosedFormsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(80)
		n := 1 + rng.Intn(40*nb)
		p := 1 + rng.Intn(24)
		lay := NewLayout(n, nb, p)
		for r := 0; r < p; r++ {
			local := 0
			for jj := r; jj < lay.NumPanels(); jj += p {
				local += lay.Width(jj)
			}
			if lay.LocalCols(r) != local {
				return false
			}
			for j := -2; j <= lay.NumPanels()+1; j++ {
				trailing := 0
				for jj := r; jj < lay.NumPanels(); jj += p {
					if jj > j {
						trailing += lay.Width(jj)
					}
				}
				if lay.TrailingLocalCols(r, j) != trailing {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any valid configuration, the result is structurally sound —
// positive wall, phases non-negative, Wall = max rank wall, Gflops below
// the aggregate machine peak.
func TestRunStructuralInvariantsProperty(t *testing.T) {
	cl := paperCluster(t)
	peak := float64(1)*machine.NewAthlon().GemmPeak + 8*machine.NewPentiumII().GemmPeak
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		n := 512 + 128*rng.Intn(12)
		res, err := Run(cl, cfg, Params{N: n})
		if err != nil {
			return false
		}
		maxWall := 0.0
		for _, rt := range res.PerRank {
			if rt.Pfact < 0 || rt.Mxswp < 0 || rt.Bcast < 0 || rt.Laswp < 0 ||
				rt.Update < 0 || rt.Uptrsv < 0 || rt.Wall <= 0 {
				return false
			}
			if rt.Ta()+rt.Tc() > rt.Wall+1e-9 {
				return false
			}
			if rt.Wall > maxWall {
				maxWall = rt.Wall
			}
		}
		if math.Abs(maxWall-res.WallTime) > 1e-12 {
			return false
		}
		return res.Gflops > 0 && res.Gflops < peak/1e9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding Pentium-II PEs never makes the per-run traffic model
// produce a faster-than-physics result: the total time is bounded below by
// compute at the aggregate peak.
func TestRunSpeedOfLightProperty(t *testing.T) {
	cl := paperCluster(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		n := 1024 + 256*rng.Intn(8)
		res, err := Run(cl, cfg, Params{N: n, Noise: -1, NoiseAbs: -1})
		if err != nil {
			return false
		}
		var aggregate float64
		for ci, use := range cfg.Normalize().Use {
			if use.PEs == 0 {
				continue
			}
			aggregate += float64(use.PEs) * cl.Classes[ci].Type().GemmPeak
		}
		lightSpeed := FlopCount(n) / aggregate
		return res.WallTime > lightSpeed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the noise controls behave — disabling them makes repeated runs
// of different seeds identical; enabling them decorrelates seeds.
func TestNoiseControlProperty(t *testing.T) {
	cl := paperCluster(t)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 1}, {PEs: 4, Procs: 1}}}
	base, err := Run(cl, cfg, Params{N: 1024, Seed: 1, Noise: -1, NoiseAbs: -1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(cl, cfg, Params{N: 1024, Seed: 2, Noise: -1, NoiseAbs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if base.WallTime != other.WallTime {
		t.Fatal("noise-free runs should not depend on the seed")
	}
	noisy1, _ := Run(cl, cfg, Params{N: 1024, Seed: 1})
	noisy2, _ := Run(cl, cfg, Params{N: 1024, Seed: 2})
	if noisy1.WallTime == noisy2.WallTime {
		t.Fatal("noisy runs should depend on the seed")
	}
}

// The bcast ablation invariant at scale: binomial never loses badly to ring
// on this small cluster, and both finish.
func TestBcastAlgorithmsComparable(t *testing.T) {
	cl := paperCluster(t)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 8, Procs: 1}}}
	ring, err := Run(cl, cfg, Params{N: 2048})
	if err != nil {
		t.Fatal(err)
	}
	binom, err := Run(cl, cfg, Params{N: 2048, Bcast: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := binom.WallTime / ring.WallTime
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("bcast algorithms diverge wildly: ratio %.2f", ratio)
	}
}

// Gigabit networking must beat 100base-TX for communication-heavy runs.
func TestGigabitBeatsFastEthernet(t *testing.T) {
	lib := simnet.NewMPICH122()
	mk := func(net *simnet.Network) *cluster.Cluster {
		fabric, err := simnet.NewFabric(lib, net)
		if err != nil {
			t.Fatal(err)
		}
		athlon := cluster.Class{Name: "Athlon", Nodes: []*machine.Node{machine.NewAthlonNode("n1")}}
		pii := cluster.Class{Name: "PII"}
		for i := 0; i < 4; i++ {
			pii.Nodes = append(pii.Nodes, machine.NewPentiumIINode("p"))
		}
		cl, err := cluster.New([]cluster.Class{athlon, pii}, fabric)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 8, Procs: 1}}}
	fast, err := Run(mk(simnet.NewFast100TX()), cfg, Params{N: 3200})
	if err != nil {
		t.Fatal(err)
	}
	giga, err := Run(mk(simnet.NewGigabit1000SX()), cfg, Params{N: 3200})
	if err != nil {
		t.Fatal(err)
	}
	if giga.WallTime >= fast.WallTime {
		t.Fatalf("gigabit (%.1f) should beat 100TX (%.1f)", giga.WallTime, fast.WallTime)
	}
}

// Lookahead (the overlap the paper's model ignores) must preserve the
// numerics exactly and help a communication-bound configuration.
func TestLookaheadNumericMatches(t *testing.T) {
	cl := paperCluster(t)
	for _, c := range []cluster.Configuration{
		cfg(1, 1, 0, 0),
		cfg(1, 1, 4, 1),
		cfg(1, 2, 3, 1),
	} {
		plain, err := Run(cl, c, Params{N: 120, NB: 16, Numeric: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		look, err := Run(cl, c, Params{N: 120, NB: 16, Numeric: true, Seed: 11, Lookahead: true})
		if err != nil {
			t.Fatal(err)
		}
		if look.Residual > 16 {
			t.Fatalf("%s lookahead residual = %v", c, look.Residual)
		}
		for i := range plain.Solution {
			if plain.Solution[i] != look.Solution[i] {
				t.Fatalf("%s x[%d] differs: %v vs %v", c, i, plain.Solution[i], look.Solution[i])
			}
		}
	}
}

func TestLookaheadReducesWallTime(t *testing.T) {
	cl := paperCluster(t)
	c := cfg(1, 1, 8, 1) // bcast-chain heavy
	plain, err := Run(cl, c, Params{N: 4800})
	if err != nil {
		t.Fatal(err)
	}
	look, err := Run(cl, c, Params{N: 4800, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	if look.WallTime >= plain.WallTime {
		t.Fatalf("lookahead (%.1f) should beat no-lookahead (%.1f)", look.WallTime, plain.WallTime)
	}
}
