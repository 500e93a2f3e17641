package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hetmodel/internal/cluster"
	"hetmodel/internal/measure"
	"hetmodel/internal/stats"
)

// Table1 renders the execution environment (paper Table 1) from the
// cluster's machine models.
func (c *Context) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: HPL execution environment (simulated)\n")
	nodeID := 1
	for _, class := range c.Cluster.Classes {
		for _, node := range class.Nodes {
			fmt.Fprintf(&b, "  Node %d: %s x%d, memory %.0f MB, gemm peak %.2f Gflop/s\n",
				nodeID, node.Type.Name, node.CPUs, node.MemoryBytes/(1<<20), node.Type.GemmPeak/1e9)
			nodeID++
		}
	}
	fmt.Fprintf(&b, "  Network: %s (%.1f MB/s), library %s\n",
		c.Cluster.Fabric.Network.Name,
		c.Cluster.Fabric.Network.Link.Bandwidth/(1<<20),
		c.Cluster.Fabric.Library.Name)
	return b.String()
}

// GridTable describes a campaign's parameter grid (paper Tables 2, 5, 8).
type GridTable struct {
	Campaign     string
	Ns           []int
	GroupConfigs map[string]int
	TotalRuns    int
	EvaluationNs []int
	EvalConfigs  int
}

// GridFor summarizes the construction grid of a campaign (Tables 2/5/8).
func GridFor(camp measure.Campaign) (*GridTable, error) {
	g := &GridTable{
		Campaign:     camp.Name,
		Ns:           camp.Ns,
		GroupConfigs: map[string]int{},
		EvaluationNs: measure.EvaluationNs(camp.Name),
		EvalConfigs:  len(EvalConfigs()),
	}
	perN := 0
	for _, group := range camp.Groups {
		cfgs, err := group.Space.Enumerate()
		if err != nil {
			return nil, err
		}
		g.GroupConfigs[group.Label] = len(cfgs)
		perN += len(cfgs)
	}
	g.TotalRuns = perN * len(camp.Ns)
	return g, nil
}

// Render prints the grid table.
func (g *GridTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign %s: sizes %v\n", g.Campaign, g.Ns)
	labels := make([]string, 0, len(g.GroupConfigs))
	for label := range g.GroupConfigs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(&b, "  %-10s %d configurations\n", label, g.GroupConfigs[label])
	}
	fmt.Fprintf(&b, "  total measurement runs: %d\n", g.TotalRuns)
	fmt.Fprintf(&b, "  evaluation: sizes %v over %d configurations\n", g.EvaluationNs, g.EvalConfigs)
	return b.String()
}

// CostRow is one line of a measurement-cost table (paper Tables 3 and 6).
type CostRow struct {
	N       int
	Seconds map[string]float64
}

// CostTable is the per-size measurement cost of a campaign.
type CostTable struct {
	Campaign string
	Labels   []string
	Rows     []CostRow
	Total    float64
}

// CostTableFor runs the campaign and produces its cost table.
func (c *Context) CostTableFor(camp measure.Campaign) (*CostTable, error) {
	if camp.Workers == 0 {
		camp.Workers = c.Workers
	}
	res, err := measure.Run(c.Cluster, camp, c.Params)
	if err != nil {
		return nil, err
	}
	return costTableFromResult(res), nil
}

func costTableFromResult(res *measure.Result) *CostTable {
	t := &CostTable{Campaign: res.Campaign.Name, Total: res.TotalCost()}
	for _, g := range res.Campaign.Groups {
		t.Labels = append(t.Labels, g.Label)
	}
	for _, n := range res.Campaign.Ns {
		row := CostRow{N: n, Seconds: map[string]float64{}}
		for _, label := range t.Labels {
			row.Seconds[label] = res.Cost[label][n]
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Render prints the cost table in the paper's Table 3/6 layout.
func (t *CostTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measurement cost, campaign %s [seconds]\n", t.Campaign)
	fmt.Fprintf(&b, "  %8s", "N")
	for _, label := range t.Labels {
		fmt.Fprintf(&b, " %12s", label)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "  %8d", row.N)
		for _, label := range t.Labels {
			fmt.Fprintf(&b, " %12.1f", row.Seconds[label])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  %8s %12.1f (total, ≈ %.1f hours)\n", "Total", t.Total, t.Total/3600)
	return b.String()
}

// EvalRow is one line of an estimated-vs-actual optimum table
// (paper Tables 4, 7, 9).
type EvalRow struct {
	N int
	// EstConfig is the configuration the model estimates to be optimal;
	// Tau its estimated time (τ), TauHat its measured time (τ̂).
	EstConfig cluster.Configuration
	Tau       float64
	TauHat    float64
	// ActConfig is the measured optimum with time THat (T̂).
	ActConfig cluster.Configuration
	THat      float64
	// ErrEst is (τ − T̂)/T̂; ErrExec is (τ̂ − T̂)/T̂, the execution-time
	// penalty of trusting the model.
	ErrEst, ErrExec float64
}

// EvalTable is the full estimated-vs-actual comparison for one model.
type EvalTable struct {
	Model string
	Rows  []EvalRow
}

// EvaluationTable reproduces the paper's Tables 4/7/9 for a built model:
// estimated optimum vs measured optimum over the 62 evaluation
// configurations at the campaign's evaluation sizes.
func (c *Context) EvaluationTable(bm *BuiltModel) (*EvalTable, error) {
	candidates := EvalConfigs()
	t := &EvalTable{Model: bm.Campaign.Name}
	for _, n := range measure.EvaluationNs(bm.Campaign.Name) {
		est, tau, err := bm.EvaluatorAt(n).Optimize(candidates)
		if err != nil {
			return nil, fmt.Errorf("experiments: optimize %s N=%d: %w", bm.Campaign.Name, n, err)
		}
		estRun, err := c.Run(est, n)
		if err != nil {
			return nil, err
		}
		act, tHat, err := c.ActualBest(candidates, n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, EvalRow{
			N:         n,
			EstConfig: est, Tau: tau, TauHat: estRun.WallTime,
			ActConfig: act, THat: tHat,
			ErrEst:  stats.RelError(tau, tHat),
			ErrExec: stats.RelError(estRun.WallTime, tHat),
		})
	}
	return t, nil
}

// Render prints the evaluation table in the paper's layout.
func (t *EvalTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Estimated vs actual best configurations (%s model)\n", t.Model)
	fmt.Fprintf(&b, "  %6s %14s %8s %8s %14s %8s %8s %8s\n",
		"N", "est(P1,M1,P2,M2)", "tau", "tauHat", "act(P1,M1,P2,M2)", "That", "errEst", "errExec")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %6d %14s %8.1f %8.1f %14s %8.1f %+8.3f %+8.3f\n",
			r.N, r.EstConfig, r.Tau, r.TauHat, r.ActConfig, r.THat, r.ErrEst, r.ErrExec)
	}
	return b.String()
}

// MaxExecError returns the largest execution-time penalty in the table.
func (t *EvalTable) MaxExecError() float64 {
	max := 0.0
	for _, r := range t.Rows {
		if r.ErrExec > max {
			max = r.ErrExec
		}
	}
	return max
}
