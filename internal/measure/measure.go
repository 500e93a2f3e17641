// Package measure runs the paper's measurement campaigns on the simulated
// cluster: grids of HPL executions whose per-class timings become the
// training samples for the estimation models, with the wall-clock cost
// accounting of the paper's Tables 3 and 6.
package measure

import (
	"errors"
	"fmt"
	"sort"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/hpl"
	"hetmodel/internal/parallel"
)

// ErrBadCampaign reports an invalid campaign description.
var ErrBadCampaign = errors.New("measure: invalid campaign")

// Group is one homogeneous sub-campaign: a labelled configuration grid
// (the paper measures the Athlon and Pentium-II grids separately, §3.5).
type Group struct {
	Label string
	Space cluster.Space
}

// Runner executes one measurement of an application (HPL by default; any
// application producing the shared result layout works).
type Runner func(*cluster.Cluster, cluster.Configuration, hpl.Params) (*hpl.Result, error)

// Campaign is a full model-construction measurement plan.
type Campaign struct {
	// Name identifies the campaign ("Basic", "NL", "NS").
	Name string
	// Ns are the problem sizes measured.
	Ns []int
	// Groups are the configuration grids, each measured at every N.
	Groups []Group
	// Runner executes each measurement; nil selects hpl.Run.
	Runner Runner
	// Workers bounds the concurrent measurements (<= 0 selects GOMAXPROCS,
	// 1 forces sequential execution). Each measurement is an independent
	// simulation, and results are accumulated in the campaign's enumeration
	// order either way, so the output is byte-identical at any setting.
	Workers int
}

// Result carries the campaign's samples and cost accounting.
type Result struct {
	Campaign Campaign
	// Samples hold one entry per (run, used class): the model training set.
	Samples []core.Sample
	// Cost[label][N] is the total simulated execution time (seconds) spent
	// measuring that group at that size — the content of Tables 3 and 6.
	Cost map[string]map[int]float64
	// Runs is the number of HPL executions performed.
	Runs int
}

// TotalCost returns the campaign's total measurement time in seconds.
// Summation follows a deterministic order so the result is bit-stable.
func (r *Result) TotalCost() float64 {
	labels := make([]string, 0, len(r.Cost))
	for label := range r.Cost {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var total float64
	for _, label := range labels {
		ns, costs := r.GroupCost(label)
		for i := range ns {
			total += costs[i]
		}
	}
	return total
}

// GroupCost returns the per-N costs of one group, sorted by N.
func (r *Result) GroupCost(label string) ([]int, []float64) {
	byN := r.Cost[label]
	ns := make([]int, 0, len(byN))
	for n := range byN {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	costs := make([]float64, len(ns))
	for i, n := range ns {
		costs[i] = byN[n]
	}
	return ns, costs
}

// cell is one campaign measurement: a (group, N, configuration) grid point.
type cell struct {
	label string
	n     int
	cfg   cluster.Configuration
}

// Run executes the campaign on the cluster. Params supplies the HPL
// settings shared by all runs (N is overridden per measurement).
//
// The campaign cells are independent simulations, so Run fans them out
// across c.Workers goroutines; samples, costs, and the run count are then
// accumulated in the sequential enumeration order (groups, then Ns, then
// configurations), making the result byte-identical to a sequential run —
// including the floating-point summation order of the cost tables.
func Run(cl *cluster.Cluster, c Campaign, params hpl.Params) (*Result, error) {
	if len(c.Ns) == 0 || len(c.Groups) == 0 {
		return nil, fmt.Errorf("%w: %s has no sizes or groups", ErrBadCampaign, c.Name)
	}
	runner := c.Runner
	if runner == nil {
		runner = hpl.Run
	}
	res := &Result{Campaign: c, Cost: make(map[string]map[int]float64)}
	var cells []cell
	for _, g := range c.Groups {
		cfgs, err := g.Space.Enumerate()
		if err != nil {
			return nil, fmt.Errorf("measure: %s/%s: %w", c.Name, g.Label, err)
		}
		res.Cost[g.Label] = make(map[int]float64, len(c.Ns))
		for _, n := range c.Ns {
			for _, cfg := range cfgs {
				cells = append(cells, cell{label: g.Label, n: n, cfg: cfg})
			}
		}
	}
	runs, err := parallel.Map(len(cells), c.Workers, func(i int) (*hpl.Result, error) {
		p := params
		p.N = cells[i].n
		run, err := runner(cl, cells[i].cfg, p)
		if err != nil {
			return nil, fmt.Errorf("measure: %s/%s %s N=%d: %w", c.Name, cells[i].label, cells[i].cfg, cells[i].n, err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		res.Runs++
		res.Cost[cells[i].label][cells[i].n] += run.WallTime
		res.Samples = append(res.Samples, SamplesFromResult(run)...)
	}
	return res, nil
}

// SamplesFromResult converts one HPL result into per-class model samples.
func SamplesFromResult(run *hpl.Result) []core.Sample {
	var out []core.Sample
	for ci, ct := range run.PerClass {
		if !ct.Used {
			continue
		}
		out = append(out, core.Sample{
			Config: run.Config,
			N:      run.Params.N,
			P:      run.P,
			Class:  ci,
			M:      run.Config.Use[ci].Procs,
			Ta:     ct.Ta,
			Tc:     ct.Tc,
			Wall:   run.WallTime,
		})
	}
	return out
}

// Paper campaign presets (Tables 2, 5, 8). The P-II construction grid of the
// Basic campaign uses all eight processors; NL and NS use {1, 2, 4, 8}.

// BasicCampaign returns the paper's Table 2 model-construction plan:
// nine sizes, full P-II grid.
func BasicCampaign() Campaign {
	athlon, pii := cluster.PaperConstructionSpace([]int{1, 2, 3, 4, 5, 6, 7, 8})
	return Campaign{
		Name: "Basic",
		Ns:   []int{400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400},
		Groups: []Group{
			{Label: "Athlon", Space: athlon},
			{Label: "PentiumII", Space: pii},
		},
	}
}

// NLCampaign returns the paper's Table 5 plan: four large sizes, reduced
// P-II grid.
func NLCampaign() Campaign {
	athlon, pii := cluster.PaperConstructionSpace([]int{1, 2, 4, 8})
	return Campaign{
		Name: "NL",
		Ns:   []int{1600, 3200, 4800, 6400},
		Groups: []Group{
			{Label: "Athlon", Space: athlon},
			{Label: "PentiumII", Space: pii},
		},
	}
}

// NSCampaign returns the paper's Table 8 plan: four small sizes, reduced
// P-II grid.
func NSCampaign() Campaign {
	athlon, pii := cluster.PaperConstructionSpace([]int{1, 2, 4, 8})
	return Campaign{
		Name: "NS",
		Ns:   []int{400, 800, 1200, 1600},
		Groups: []Group{
			{Label: "Athlon", Space: athlon},
			{Label: "PentiumII", Space: pii},
		},
	}
}

// EvaluationNs returns the paper's evaluation sizes for each campaign.
func EvaluationNs(name string) []int {
	switch name {
	case "Basic":
		return []int{3200, 4800, 6400, 8000, 9600}
	default:
		return []int{1600, 3200, 4800, 6400, 8000, 9600}
	}
}
