package hetmodel_test

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"hetmodel"
)

func TestNewPaperClusterShape(t *testing.T) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Classes) != 2 {
		t.Fatalf("classes = %d", len(cl.Classes))
	}
	if cl.Classes[0].PEs() != 1 || cl.Classes[1].PEs() != 8 {
		t.Fatalf("PE counts: %d, %d", cl.Classes[0].PEs(), cl.Classes[1].PEs())
	}
}

func TestNewClusterCustom(t *testing.T) {
	nodes := []*hetmodel.Node{hetmodel.NewAthlonNode("a1"), hetmodel.NewAthlonNode("a2")}
	cl, err := hetmodel.NewCluster(
		[]hetmodel.Class{{Name: "athlons", Nodes: nodes}},
		hetmodel.NewMPICH122(),
		hetmodel.NewGigabit1000SX(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Classes[0].PEs() != 2 {
		t.Fatalf("PEs = %d", cl.Classes[0].PEs())
	}
	// Invalid library must be rejected.
	bad := hetmodel.NewMPICH122()
	bad.BandwidthEfficiency = 2
	if _, err := hetmodel.NewCluster(
		[]hetmodel.Class{{Name: "x", Nodes: nodes}}, bad, hetmodel.NewFast100TX(),
	); err == nil {
		t.Fatal("invalid library accepted")
	}
}

func TestCampaignKinds(t *testing.T) {
	cases := map[hetmodel.CampaignKind]struct {
		name  string
		sizes int
	}{
		hetmodel.CampaignBasic: {"Basic", 9},
		hetmodel.CampaignNL:    {"NL", 4},
		hetmodel.CampaignNS:    {"NS", 4},
	}
	for kind, want := range cases {
		plan := kind.Plan()
		if plan.Name != want.name || len(plan.Ns) != want.sizes {
			t.Fatalf("%v plan = %s/%d", kind, plan.Name, len(plan.Ns))
		}
		if kind.String() != want.name {
			t.Fatalf("String() = %s", kind.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	hetmodel.CampaignKind(99).Plan()
}

func TestRunHPLAndSamples(t *testing.T) {
	cl, _ := hetmodel.NewPaperCluster()
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 1}, {PEs: 2, Procs: 1}}}
	res, err := hetmodel.RunHPL(cl, cfg, hetmodel.HPLParams{N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 || res.P != 3 {
		t.Fatalf("result: %+v", res)
	}
	samples := hetmodel.SamplesFromResult(res)
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
}

func TestBuildModelsEndToEnd(t *testing.T) {
	cl, _ := hetmodel.NewPaperCluster()
	campaign := hetmodel.Campaign{
		Name: "mini",
		Ns:   []int{512, 1024, 1536, 2048, 3072},
		Groups: []hetmodel.Group{
			{Label: "Athlon", Space: hetmodel.Space{
				PEChoices:   [][]int{{1}, {0}},
				ProcChoices: [][]int{{1, 2}, {0}},
			}},
			{Label: "PII", Space: hetmodel.Space{
				PEChoices:   [][]int{{0}, {1, 2, 4, 8}},
				ProcChoices: [][]int{{0}, {1, 2}},
			}},
		},
	}
	result, err := hetmodel.RunCampaign(cl, campaign, hetmodel.HPLParams{})
	if err != nil {
		t.Fatal(err)
	}
	if result.Runs != (2+8)*5 {
		t.Fatalf("runs = %d", result.Runs)
	}
	// Calibration runs for the adjustment.
	var calib []hetmodel.Sample
	for _, m := range []int{1, 2} {
		cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: m}, {PEs: 8, Procs: 1}}}
		r, err := hetmodel.RunHPL(cl, cfg, hetmodel.HPLParams{N: 3072})
		if err != nil {
			t.Fatal(err)
		}
		calib = append(calib, hetmodel.SamplesFromResult(r)...)
	}
	models, err := hetmodel.BuildModels(cl, result.Samples, calib)
	if err != nil {
		t.Fatal(err)
	}
	// The Athlon class got composed P-T models.
	est, err := models.Estimate(hetmodel.Configuration{
		Use: []hetmodel.ClassUse{{PEs: 1, Procs: 2}, {PEs: 8, Procs: 1}},
	}, 3072)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || math.IsInf(est, 0) {
		t.Fatalf("estimate = %v", est)
	}
	// Models survive a JSON round trip.
	data, err := json.Marshal(models)
	if err != nil {
		t.Fatal(err)
	}
	var back hetmodel.ModelSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	est2, err := back.Estimate(hetmodel.Configuration{
		Use: []hetmodel.ClassUse{{PEs: 1, Procs: 2}, {PEs: 8, Procs: 1}},
	}, 3072)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-est2) > 1e-9 {
		t.Fatalf("round-trip estimate differs: %v vs %v", est, est2)
	}
	// Samples of a class the cluster does not have are an error.
	stray := append([]hetmodel.Sample(nil), result.Samples...)
	for i := range stray {
		stray[i].Class += 2
	}
	if _, err := hetmodel.BuildModels(cl, stray, nil); err == nil {
		t.Fatal("samples outside the cluster's classes accepted")
	}
}

// TestBuildModelsMatchesPipeline refits the NL pipeline's own bins and
// calibration set through the public BuildModels: both must carry the same
// §3.4 memory rule and recommend the same configuration at the same τ,
// including at N = 16000, where the rule excludes configurations that page.
func TestBuildModelsMatchesPipeline(t *testing.T) {
	cl, _ := hetmodel.NewPaperCluster()
	pipeline, err := hetmodel.BuildPaperModels(cl, hetmodel.CampaignNL)
	if err != nil {
		t.Fatal(err)
	}
	public, err := hetmodel.BuildModels(cl, pipeline.Bins.Flatten(), pipeline.Bins.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{9600, 16000} {
		want, wantTau, err := pipeline.Optimize(hetmodel.EvalConfigs(), n)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTau, err := public.Optimize(hetmodel.EvalConfigs(), n)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || gotTau != wantTau {
			t.Fatalf("N=%d: BuildModels picks %v (τ %.1f s), pipeline %v (τ %.1f s)", n, got, gotTau, want, wantTau)
		}
	}
	if !reflect.DeepEqual(public.Cluster, pipeline.Cluster) {
		t.Fatalf("cluster descriptor = %+v, pipeline has %+v", public.Cluster, pipeline.Cluster)
	}
}

func TestBuildModelsWithoutCalibration(t *testing.T) {
	cl, _ := hetmodel.NewPaperCluster()
	models, err := hetmodel.BuildPaperModels(cl, hetmodel.CampaignNS)
	if err != nil {
		t.Fatal(err)
	}
	if models.Adjust == nil {
		t.Fatal("paper pipeline should calibrate the adjustment")
	}
	if len(models.NT) != 30 {
		t.Fatalf("NS NT bins = %d, want 30", len(models.NT))
	}
}

func TestEvalConfigsFacade(t *testing.T) {
	if got := len(hetmodel.EvalConfigs()); got != 62 {
		t.Fatalf("eval configs = %d", got)
	}
}

func TestConfigurationString(t *testing.T) {
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 4}, {PEs: 8, Procs: 1}}}
	if !strings.Contains(cfg.String(), "1,4,8,1") {
		t.Fatalf("String = %s", cfg.String())
	}
}
