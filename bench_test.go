// Benchmarks regenerating every table and figure of the paper (DESIGN.md §4)
// plus the ablations of §6. Each BenchmarkTableN/BenchmarkFigureN target
// measures the full regeneration of that artifact on the simulated testbed;
// the ablation benchmarks compare the design alternatives called out in
// DESIGN.md.
package hetmodel_test

import (
	"math/rand"
	"sync"
	"testing"

	"hetmodel"
	"hetmodel/internal/chol"
	"hetmodel/internal/cluster"
	"hetmodel/internal/experiments"
	"hetmodel/internal/hpl"
	"hetmodel/internal/hpl2d"
	"hetmodel/internal/linalg"
	"hetmodel/internal/lsq"
	"hetmodel/internal/measure"
	"hetmodel/internal/simnet"
)

// Shared fixtures: building the three models is expensive; benchmarks that
// only evaluate them reuse one build.
var (
	fixtureOnce sync.Once
	fixtureCtx  *experiments.Context
	fixtureBM   map[string]*experiments.BuiltModel
	fixtureErr  error
)

func fixtures(b *testing.B) (*experiments.Context, map[string]*experiments.BuiltModel) {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtureCtx, fixtureErr = experiments.NewPaperContext()
		if fixtureErr != nil {
			return
		}
		fixtureBM = map[string]*experiments.BuiltModel{}
		for _, camp := range []measure.Campaign{
			measure.BasicCampaign(), measure.NLCampaign(), measure.NSCampaign(),
		} {
			bm, err := fixtureCtx.BuildModel(camp)
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureBM[camp.Name] = bm
		}
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureCtx, fixtureBM
}

// BenchmarkFigure1 regenerates the single-Athlon multiprocessing sweep for
// both MPICH presets (paper Figure 1(a)+(b)).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lib := range []*simnet.CommLibrary{simnet.NewMPICH121(), simnet.NewMPICH122()} {
			if _, err := experiments.Figure1(lib, hpl.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure2 regenerates the NetPIPE throughput sweeps (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lib := range []*simnet.CommLibrary{simnet.NewMPICH121(), simnet.NewMPICH122()} {
			if _, err := experiments.Figure2(lib); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3 regenerates the load-imbalance and multiprocessing
// curves on the heterogeneous cluster (Figure 3(a)+(b)).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx, err := experiments.NewPaperContext()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Figure3a(); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Figure3b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the Basic campaign's measurement-cost table.
func BenchmarkTable3(b *testing.B) {
	ctx, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.CostTableFor(measure.BasicCampaign()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the NL/NS measurement-cost tables.
func BenchmarkTable6(b *testing.B) {
	ctx, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.CostTableFor(measure.NLCampaign()); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.CostTableFor(measure.NSCampaign()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEvalTable(b *testing.B, model string) {
	ctx, bms := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.EvaluationTable(bms[model]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the Basic-model evaluation (Table 4).
func BenchmarkTable4(b *testing.B) { benchEvalTable(b, "Basic") }

// BenchmarkTable7 regenerates the NL-model evaluation (Table 7).
func BenchmarkTable7(b *testing.B) { benchEvalTable(b, "NL") }

// BenchmarkTable9 regenerates the NS-model evaluation (Table 9).
func BenchmarkTable9(b *testing.B) { benchEvalTable(b, "NS") }

// BenchmarkFigure6And7 regenerates the Basic-model correlation scatters at
// N = 6400, raw and adjusted.
func BenchmarkFigure6And7(b *testing.B) {
	ctx, bms := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Correlation(bms["Basic"], 6400, false); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Correlation(bms["Basic"], 6400, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8To15 regenerates the NL and NS correlation scatters.
func BenchmarkFigure8To15(b *testing.B) {
	ctx, bms := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, model := range []string{"NL", "NS"} {
			for _, n := range []int{1600, 6400} {
				for _, adjusted := range []bool{false, true} {
					if _, err := ctx.Correlation(bms[model], n, adjusted); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkModelConstruction measures the fit itself (the paper reports
// 0.69 ms for 54 configurations on an Athlon XP).
func BenchmarkModelConstruction(b *testing.B) {
	_, bms := fixtures(b)
	samples := bms["Basic"].Result.Samples
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetmodel.BuildModels(cl, samples, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimation measures scoring all 62 evaluation configurations
// (the paper reports 35 ms for 62 configurations x 4 sizes).
func BenchmarkEstimation(b *testing.B) {
	_, bms := fixtures(b)
	candidates := experiments.EvalConfigs()
	models := bms["Basic"].Models
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{3200, 4800, 6400, 9600} {
			if _, _, err := models.Optimize(candidates, n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkOptimizerExhaustive measures the paper's every-configuration
// search.
func BenchmarkOptimizerExhaustive(b *testing.B) {
	_, bms := fixtures(b)
	candidates := experiments.EvalConfigs()
	models := bms["Basic"].Models
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := models.Optimize(candidates, 6400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerHeuristic measures the hill-climbing alternative
// (the paper's §5 future work).
func BenchmarkOptimizerHeuristic(b *testing.B) {
	_, bms := fixtures(b)
	space := cluster.PaperEvaluationSpace()
	models := bms["Basic"].Models
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := models.OptimizeHeuristic(space, 6400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHPLPhantom measures a timing-only simulation of the paper's
// largest evaluation run.
func BenchmarkHPLPhantom(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 4}, {PEs: 8, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetmodel.RunHPL(cl, cfg, hetmodel.HPLParams{N: 9600}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHPLNumeric measures a real-arithmetic run (small N; numeric mode
// exists for validation, not scale).
func BenchmarkHPLNumeric(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 1}, {PEs: 3, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hetmodel.RunHPL(cl, cfg, hetmodel.HPLParams{N: 192, NB: 32, Numeric: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Residual > 16 {
			b.Fatalf("residual %v", res.Residual)
		}
	}
}

// BenchmarkLSQHouseholder measures the production least-squares path.
func BenchmarkLSQHouseholder(b *testing.B) {
	x, y := lsqFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lsq.MultifitLinear(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSQNormalEquations measures the normal-equations alternative.
func BenchmarkLSQNormalEquations(b *testing.B) {
	x, y := lsqFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lsq.MultifitNormalEquations(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func lsqFixture() (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(42))
	const rows, cols = 72, 4
	x := linalg.NewMatrix(rows, cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = rng.NormFloat64()
	}
	return x, y
}

// BenchmarkGEMMSerial and BenchmarkGEMMParallel compare the blocked kernel
// with its row-partitioned parallel variant.
func BenchmarkGEMMSerial(b *testing.B) {
	a, c, out := gemmFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := linalg.MulAdd(1, a, c, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGEMMParallel(b *testing.B) {
	a, c, out := gemmFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := linalg.ParallelMulAdd(1, a, c, out, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func gemmFixture() (*linalg.Matrix, *linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(7))
	const n = 256
	a := linalg.NewMatrix(n, n)
	c := linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		c.Data[i] = rng.NormFloat64()
	}
	return a, c, linalg.NewMatrix(n, n)
}

// BenchmarkCholeskyPhantom measures the second application's timing walk
// (the paper's "other parallel applications" future work).
func BenchmarkCholeskyPhantom(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 3}, {PEs: 8, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chol.Run(cl, cfg, chol.Params{N: 6400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyNumeric measures a real-arithmetic Cholesky run.
func BenchmarkCholeskyNumeric(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 1}, {PEs: 3, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chol.Run(cl, cfg, chol.Params{N: 160, NB: 32, Numeric: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Residual > 16 {
			b.Fatalf("residual %v", res.Residual)
		}
	}
}

// BenchmarkFigureSVGs measures rendering all sixteen paper figures to SVG.
func BenchmarkFigureSVGs(b *testing.B) {
	ctx, _ := fixtures(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.WriteFigureSVGs(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHPL2DPhantom measures the 2D-grid timing walk (real pivot
// communication on every panel column).
func BenchmarkHPL2DPhantom(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{}, {PEs: 8, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hpl2d.Run(cl, cfg, hpl2d.Params{Params: hetmodel.HPLParams{N: 4096}, Pr: 2, Pc: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHPL2DNumeric measures a real-arithmetic 2D run.
func BenchmarkHPL2DNumeric(b *testing.B) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{}, {PEs: 4, Procs: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hpl2d.Run(cl, cfg, hpl2d.Params{
			Params: hetmodel.HPLParams{N: 128, NB: 16, Numeric: true, Seed: int64(i)},
			Pr:     2, Pc: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Residual > 16 {
			b.Fatalf("residual %v", res.Residual)
		}
	}
}

// --- Parallel execution engine benchmarks (internal/parallel) ---
//
// These measure the tentpole speedups: the model-construction campaign and
// the exhaustive candidate sweep fanned out over worker goroutines versus
// the sequential baseline. Run e.g.:
//
//	go test -bench 'Campaign|Sweep' -benchtime=2x .

// benchCampaign is the NL campaign restricted to its two smaller sizes so
// a benchmark iteration stays in the hundreds of milliseconds.
func benchCampaign(workers int) measure.Campaign {
	camp := measure.NLCampaign()
	camp.Ns = camp.Ns[:2]
	camp.Workers = workers
	return camp
}

func benchmarkCampaign(b *testing.B, workers int) {
	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		b.Fatal(err)
	}
	camp := benchCampaign(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Run(cl, camp, hpl.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignWorkers1(b *testing.B)   { benchmarkCampaign(b, 1) }
func BenchmarkCampaignWorkers2(b *testing.B)   { benchmarkCampaign(b, 2) }
func BenchmarkCampaignWorkers4(b *testing.B)   { benchmarkCampaign(b, 4) }
func BenchmarkCampaignWorkersMax(b *testing.B) { benchmarkCampaign(b, 0) }

// benchmarkSweep measures the hetopt -verify path: simulating all 62
// evaluation candidates at one size. Each iteration uses a fresh context so
// the memoized cache cannot hide the simulation cost.
func benchmarkSweep(b *testing.B, workers int) {
	candidates := experiments.EvalConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, err := experiments.NewPaperContext()
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = workers
		b.StartTimer()
		if _, _, err := ctx.ActualBest(candidates, 2400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepWorkers1(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepWorkers4(b *testing.B)   { benchmarkSweep(b, 4) }
func BenchmarkSweepWorkersMax(b *testing.B) { benchmarkSweep(b, 0) }
