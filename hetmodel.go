// Package hetmodel is the public facade of the reproduction of
// Kishimoto & Ichikawa, "An Execution-Time Estimation Model for
// Heterogeneous Clusters" (IPDPS 2004).
//
// It re-exports the library's primary types and provides the pipeline a
// downstream user needs: build (or describe) a heterogeneous cluster,
// measure a model-construction campaign on it, fit the paper's models, and
// ask for the optimal PE configuration and process allocation for a given
// problem size.
//
//	cl, _ := hetmodel.NewPaperCluster()
//	models, _ := hetmodel.BuildPaperModels(cl, hetmodel.CampaignNL)
//	best, tau, _ := models.Optimize(hetmodel.EvalConfigs(), 9600)
//
// BuildPaperModels and BuildModels fit through one pipeline: N-T and P-T
// models (§3.2, §3.3), composition (§3.5), the adjustment (§4.1) and the
// memory rule (§3.4), so both recommend the same configuration from the same
// samples. The machinery (simulated machines, virtual-time MPI, the HPL
// reproduction, campaign runners and the experiment harness) lives in the
// internal packages; see DESIGN.md for the map.
package hetmodel

import (
	"fmt"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/experiments"
	"hetmodel/internal/hpl"
	"hetmodel/internal/machine"
	"hetmodel/internal/measure"
	"hetmodel/internal/simnet"
)

// Core model types (the paper's contribution).
type (
	// ModelSet bundles fitted N-T and P-T models with binning,
	// composition and adjustment.
	ModelSet = core.ModelSet
	// NTModel is the per-configuration polynomial model in N (§3.2).
	NTModel = core.NTModel
	// PTModel is the per-(class, M) model in N and P (§3.3).
	PTModel = core.PTModel
	// Sample is one measured per-class execution record.
	Sample = core.Sample
)

// Compiled-evaluation types: the query-compiled fast path for scoring
// many candidates at one problem size (see ModelSet.Compile and
// ModelSet.OptimizeSpace).
type (
	// Evaluator is a ModelSet compiled for one problem size n.
	Evaluator = core.Evaluator
	// SearchOptions tunes the streaming configuration search
	// (workers, top-K, pruning).
	SearchOptions = core.SearchOptions
	// SearchResult carries the ranked winners and search statistics.
	SearchResult = core.SearchResult
	// Constraints restricts a search structurally (allowed classes, total
	// process cap, per-PE memory bound); see SearchOptions.Constraints.
	Constraints = core.Constraints
)

// Cluster and configuration types.
type (
	// Cluster is a simulated heterogeneous cluster.
	Cluster = cluster.Cluster
	// Configuration selects PEs and process counts per class.
	Configuration = cluster.Configuration
	// ClassUse is the per-class (PEs, processes-per-PE) pair.
	ClassUse = cluster.ClassUse
	// Space is a grid of candidate configurations.
	Space = cluster.Space
)

// Hardware description types, for building custom clusters.
type (
	// PEType is a processor performance model.
	PEType = machine.PEType
	// Node is a physical machine (CPUs + shared memory).
	Node = machine.Node
	// Class groups identical nodes into one PE class.
	Class = cluster.Class
	// CommLibrary models the messaging software layer.
	CommLibrary = simnet.CommLibrary
	// Network models the physical interconnect.
	Network = simnet.Network
)

// Execution types.
type (
	// HPLParams configures one benchmark run.
	HPLParams = hpl.Params
	// HPLResult is the detailed outcome of one run.
	HPLResult = hpl.Result
	// Campaign is a model-construction measurement plan.
	Campaign = measure.Campaign
	// Group is one labelled configuration grid within a campaign.
	Group = measure.Group
	// CampaignResult carries samples and cost accounting.
	CampaignResult = measure.Result
)

// CampaignKind selects one of the paper's three training plans.
type CampaignKind int

const (
	// CampaignBasic is the paper's Table 2 plan (9 sizes, full grid).
	CampaignBasic CampaignKind = iota
	// CampaignNL is the Table 5 plan (4 large sizes, reduced grid).
	CampaignNL
	// CampaignNS is the Table 8 plan (4 small sizes, reduced grid).
	CampaignNS
)

// Plan returns the campaign definition for the kind.
func (k CampaignKind) Plan() Campaign {
	switch k {
	case CampaignBasic:
		return measure.BasicCampaign()
	case CampaignNL:
		return measure.NLCampaign()
	case CampaignNS:
		return measure.NSCampaign()
	default:
		panic(fmt.Sprintf("hetmodel: unknown campaign kind %d", int(k)))
	}
}

// String implements fmt.Stringer.
func (k CampaignKind) String() string { return k.Plan().Name }

// NewPaperCluster returns the paper's Table 1 testbed (one Athlon node plus
// four dual Pentium-II nodes on 100base-TX) with the MPICH-1.2.2-like
// messaging library.
func NewPaperCluster() (*Cluster, error) {
	return cluster.NewPaper(simnet.NewMPICH122())
}

// NewCluster assembles a custom heterogeneous cluster from node classes, a
// messaging library and a physical network.
func NewCluster(classes []Class, lib *CommLibrary, net *Network) (*Cluster, error) {
	fabric, err := simnet.NewFabric(lib, net)
	if err != nil {
		return nil, err
	}
	return cluster.New(classes, fabric)
}

// Hardware presets re-exported for custom cluster construction.
var (
	// NewAthlonNode returns the paper's Node 1 type.
	NewAthlonNode = machine.NewAthlonNode
	// NewPentiumIINode returns one of the paper's Nodes 2-5.
	NewPentiumIINode = machine.NewPentiumIINode
	// NewAthlon and NewPentiumII return the bare PE models.
	NewAthlon    = machine.NewAthlon
	NewPentiumII = machine.NewPentiumII
	// NewMPICH121 and NewMPICH122 return the messaging-library presets.
	NewMPICH121 = simnet.NewMPICH121
	NewMPICH122 = simnet.NewMPICH122
	// NewFast100TX and NewGigabit1000SX return the network presets.
	NewFast100TX     = simnet.NewFast100TX
	NewGigabit1000SX = simnet.NewGigabit1000SX
)

// RunHPL executes the HPL reproduction for one configuration.
func RunHPL(cl *Cluster, cfg Configuration, params HPLParams) (*HPLResult, error) {
	return hpl.Run(cl, cfg, params)
}

// RunCampaign measures a full model-construction campaign.
func RunCampaign(cl *Cluster, c Campaign, params HPLParams) (*CampaignResult, error) {
	return measure.Run(cl, c, params)
}

// BuildModels fits a complete ModelSet from campaign samples with the same
// pipeline BuildPaperModels uses: all N-T and P-T models, composition for
// classes lacking P-T data (from the first class that has them, with a
// fitted Ta factor and the paper's 0.85 Tc factor), the §4.1 adjustment
// when calibration samples are supplied, and the §3.4 memory rule for cl
// running HPL with default parameters.
func BuildModels(cl *Cluster, samples []Sample, calibration []Sample) (*ModelSet, error) {
	return experiments.Fit(cl, HPLParams{}, samples, calibration)
}

// BuildPaperModels runs the full paper pipeline on a paper-shaped cluster:
// measurement campaign, model fitting, composition, and the adjustment
// calibrated at the campaign's largest size.
func BuildPaperModels(cl *Cluster, kind CampaignKind) (*ModelSet, error) {
	ctx := experiments.NewContext(cl, HPLParams{})
	bm, err := ctx.BuildModel(kind.Plan())
	if err != nil {
		return nil, err
	}
	return bm.Models, nil
}

// EvalConfigs returns the paper's 62 evaluation configurations for the
// two-class paper cluster.
func EvalConfigs() []Configuration {
	return experiments.EvalConfigs()
}

// SamplesFromResult converts one HPL run into model training samples.
func SamplesFromResult(r *HPLResult) []Sample {
	return measure.SamplesFromResult(r)
}
