package measure

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hetmodel/internal/chol"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
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

// tinyCampaign keeps unit tests fast: two sizes, small grids.
func tinyCampaign() Campaign {
	athlon, pii := cluster.PaperConstructionSpace([]int{1, 2})
	athlon.ProcChoices[0] = []int{1, 2}
	pii.ProcChoices[1] = []int{1}
	return Campaign{
		Name:   "tiny",
		Ns:     []int{256, 512},
		Groups: []Group{{Label: "Athlon", Space: athlon}, {Label: "PentiumII", Space: pii}},
	}
}

func TestRunTinyCampaign(t *testing.T) {
	cl := paperCluster(t)
	res, err := Run(cl, tinyCampaign(), hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 Athlon configs + 2 P-II configs, 2 sizes = 8 runs.
	if res.Runs != 8 {
		t.Fatalf("runs = %d, want 8", res.Runs)
	}
	if len(res.Samples) != 8 {
		t.Fatalf("samples = %d, want 8 (one class per homogeneous run)", len(res.Samples))
	}
	if res.TotalCost() <= 0 {
		t.Fatal("no cost recorded")
	}
	ns, costs := res.GroupCost("Athlon")
	if len(ns) != 2 || ns[0] != 256 || ns[1] != 512 {
		t.Fatalf("group sizes = %v", ns)
	}
	if costs[0] <= 0 || costs[1] <= costs[0] {
		t.Fatalf("costs not increasing: %v", costs)
	}
	// Every sample describes the class its group measured.
	for _, s := range res.Samples {
		if s.Ta <= 0 {
			t.Fatalf("sample without compute time: %+v", s)
		}
		if s.P != s.Config.TotalProcs() {
			t.Fatalf("sample P mismatch: %+v", s)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cl := paperCluster(t)
	if _, err := Run(cl, Campaign{Name: "x"}, hpl.Params{}); !errors.Is(err, ErrBadCampaign) {
		t.Fatal("empty campaign accepted")
	}
	bad := tinyCampaign()
	bad.Groups[0].Space = cluster.Space{PEChoices: [][]int{{1}}, ProcChoices: [][]int{{1}, {1}}}
	if _, err := Run(cl, bad, hpl.Params{}); err == nil {
		t.Fatal("bad space accepted")
	}
}

func TestSamplesFromResultHeterogeneous(t *testing.T) {
	cl := paperCluster(t)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 2}, {PEs: 2, Procs: 1}}}
	run, err := hpl.Run(cl, cfg, hpl.Params{N: 512})
	if err != nil {
		t.Fatal(err)
	}
	samples := SamplesFromResult(run)
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2 (both classes used)", len(samples))
	}
	byClass := map[int]core.Sample{}
	for _, s := range samples {
		byClass[s.Class] = s
	}
	if byClass[0].M != 2 || byClass[1].M != 1 {
		t.Fatalf("per-class M wrong: %+v", byClass)
	}
	if byClass[0].P != 4 || byClass[1].P != 4 {
		t.Fatalf("per-class P wrong: %+v", byClass)
	}
}

func TestPaperCampaignShapes(t *testing.T) {
	basic := BasicCampaign()
	if len(basic.Ns) != 9 || basic.Ns[0] != 400 || basic.Ns[8] != 6400 {
		t.Fatalf("basic sizes = %v", basic.Ns)
	}
	aCfgs, _ := basic.Groups[0].Space.Enumerate()
	pCfgs, _ := basic.Groups[1].Space.Enumerate()
	// Paper: (6 + 48) × 9 = 486 measurement sets.
	if len(aCfgs) != 6 || len(pCfgs) != 48 {
		t.Fatalf("basic grid = %d + %d, want 6 + 48", len(aCfgs), len(pCfgs))
	}
	nl := NLCampaign()
	if len(nl.Ns) != 4 || nl.Ns[0] != 1600 {
		t.Fatalf("NL sizes = %v", nl.Ns)
	}
	nlP, _ := nl.Groups[1].Space.Enumerate()
	// Paper: (6 + 24) × 4 = 120 sets.
	if len(nlP) != 24 {
		t.Fatalf("NL P-II grid = %d, want 24", len(nlP))
	}
	ns := NSCampaign()
	if len(ns.Ns) != 4 || ns.Ns[3] != 1600 {
		t.Fatalf("NS sizes = %v", ns.Ns)
	}
}

func TestEvaluationNs(t *testing.T) {
	if got := EvaluationNs("Basic"); len(got) != 5 || got[0] != 3200 {
		t.Fatalf("Basic eval sizes = %v", got)
	}
	if got := EvaluationNs("NL"); len(got) != 6 || got[0] != 1600 {
		t.Fatalf("NL eval sizes = %v", got)
	}
}

func TestCampaignCostDeterministic(t *testing.T) {
	cl := paperCluster(t)
	a, err := Run(cl, tinyCampaign(), hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cl, tinyCampaign(), hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost() != b.TotalCost() {
		t.Fatalf("campaign cost not deterministic: %v vs %v", a.TotalCost(), b.TotalCost())
	}
}

func TestCampaignCustomRunner(t *testing.T) {
	cl := paperCluster(t)
	var calls atomic.Int64 // Run fans the runner out over campaign workers
	camp := tinyCampaign()
	camp.Runner = func(c *cluster.Cluster, cfg cluster.Configuration, p hpl.Params) (*hpl.Result, error) {
		calls.Add(1)
		return hpl.Run(c, cfg, p)
	}
	res, err := Run(cl, camp, hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if n := int(calls.Load()); n != res.Runs || n == 0 {
		t.Fatalf("runner called %d times for %d runs", n, res.Runs)
	}
}

// A campaign measured with the Cholesky runner produces valid samples —
// the application abstraction behind the "beyond HPL" extension.
func TestCampaignWithCholeskyRunner(t *testing.T) {
	cl := paperCluster(t)
	camp := tinyCampaign()
	camp.Runner = chol.Run
	res, err := Run(cl, camp, hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Ta <= 0 {
			t.Fatalf("bad Cholesky sample: %+v", s)
		}
		// Cholesky has no pivoting; its Tc is pure broadcast/wait and can
		// be zero for single-PE runs.
		if s.Tc < 0 {
			t.Fatalf("negative Tc: %+v", s)
		}
	}
}

// TestRunParallelDeterminism asserts the tentpole contract: a campaign run
// with concurrent workers produces byte-identical samples, costs, and run
// counts to the sequential execution.
func TestRunParallelDeterminism(t *testing.T) {
	cl := paperCluster(t)
	seqCamp := tinyCampaign()
	seqCamp.Workers = 1
	seq, err := Run(cl, seqCamp, hpl.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		parCamp := tinyCampaign()
		parCamp.Workers = workers
		par, err := Run(cl, parCamp, hpl.Params{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Runs != seq.Runs {
			t.Fatalf("workers=%d: runs %d != %d", workers, par.Runs, seq.Runs)
		}
		if !reflect.DeepEqual(par.Samples, seq.Samples) {
			t.Fatalf("workers=%d: sample streams differ", workers)
		}
		// Costs must match to the bit (same float summation order).
		if !reflect.DeepEqual(par.Cost, seq.Cost) {
			t.Fatalf("workers=%d: cost tables differ: %v vs %v", workers, par.Cost, seq.Cost)
		}
		if par.TotalCost() != seq.TotalCost() {
			t.Fatalf("workers=%d: total cost %v != %v", workers, par.TotalCost(), seq.TotalCost())
		}
	}
}

// TestRunParallelErrorMatchesSequential asserts the failing cell reported
// by a concurrent campaign is the same one the sequential loop stops on.
func TestRunParallelErrorMatchesSequential(t *testing.T) {
	cl := paperCluster(t)
	boom := errors.New("boom")
	failingRunner := func(c *cluster.Cluster, cfg cluster.Configuration, p hpl.Params) (*hpl.Result, error) {
		if p.N == 512 && cfg.Use[0].Procs == 2 {
			return nil, boom
		}
		return hpl.Run(c, cfg, p)
	}
	var msgs []string
	for _, workers := range []int{1, 4} {
		camp := tinyCampaign()
		camp.Workers = workers
		camp.Runner = failingRunner
		_, err := Run(cl, camp, hpl.Params{})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("parallel error %q != sequential error %q", msgs[1], msgs[0])
	}
}
