package cluster

import (
	"fmt"
	"math"
)

// maxTotalProcs caps what the estimator tabulates per process or per CPU:
// the total process count a Space can reach and the CPUs of a described class.
const maxTotalProcs = 1 << 16

// Descriptor is the part of a cluster the paper's §3.4 memory binning reads,
// as plain data that travels with a model file: a configuration whose ranks
// would not fit a node's physical memory is excluded, because no training
// data exists in the paging regime.
type Descriptor struct {
	// Nodes[class] lists the class's nodes in placement order: Place takes
	// CPUs round-robin across them, and the rule follows the same order.
	Nodes [][]NodeSpec `json:"nodes"`
	// RankBytes is the predetermined resident requirement of one rank.
	RankBytes RankBytes `json:"rankBytes"`
}

// NodeSpec is one physical machine as the memory rule sees it.
type NodeSpec struct {
	CPUs        int     `json:"cpus"`
	MemoryBytes float64 `json:"memoryBytes"`
}

// RankBytes holds the coefficients of a rank's resident requirement at
// problem size N and total process count P, N2OverP·N²/P + N·N + Fixed: for
// HPL 8 bytes per matrix element, 8·NB per row of panel buffers, and the
// process's fixed workspace.
type RankBytes struct {
	N2OverP float64 `json:"n2OverP"`
	N       float64 `json:"n"`
	Fixed   float64 `json:"fixed"`
}

// Validate checks the descriptor against a model set's class count: every
// class has nodes, every node CPUs and a finite memory, no class more CPUs
// than the process cap, and the coefficients are finite and non-negative.
func (d *Descriptor) Validate(classes int) error {
	if len(d.Nodes) != classes {
		return fmt.Errorf("%w: descriptor has %d classes, model set has %d", ErrBadCluster, len(d.Nodes), classes)
	}
	for ci, nodes := range d.Nodes {
		if len(nodes) == 0 {
			return fmt.Errorf("%w: class %d has no nodes", ErrBadCluster, ci)
		}
		cpus := 0
		for _, nd := range nodes {
			if nd.CPUs <= 0 || nd.CPUs > maxTotalProcs-cpus {
				return fmt.Errorf("%w: class %d has a node with %d cpus (a class holds 1 to %d)", ErrBadCluster, ci, nd.CPUs, maxTotalProcs)
			}
			if !(nd.MemoryBytes > 0) || math.IsInf(nd.MemoryBytes, 1) {
				return fmt.Errorf("%w: class %d has a node with memoryBytes %v", ErrBadCluster, ci, nd.MemoryBytes)
			}
			cpus += nd.CPUs
		}
	}
	for _, c := range []float64{d.RankBytes.N2OverP, d.RankBytes.N, d.RankBytes.Fixed} {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("%w: rankBytes coefficient %v", ErrBadCluster, c)
		}
	}
	return nil
}
