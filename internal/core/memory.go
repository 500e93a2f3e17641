package core

import "hetmodel/internal/cluster"

// memRule is a cluster.Descriptor compiled for one problem size. A class
// whose ranks would overflow one of its nodes (§3.4) contributes +Inf to τ —
// in ModelSet.Estimate, in Evaluator.Tau and in the grid tables alike.
type memRule struct {
	// matrix/P + extra is the per-rank resident requirement in bytes.
	matrix, extra float64
	nodes         [][]cluster.NodeSpec
	// turn[class][i][c] is the ordinal at which cluster.Place's round-robin
	// over the class (CPU 0 of every node, then CPU 1, ...) takes CPU c of
	// node i: a class using k PEs uses exactly the CPUs with turn <= k.
	turn [][][]int
}

// compileMemRule compiles the descriptor (nil when the model set has none)
// for problem size n. The descriptor must satisfy Descriptor.Validate; its
// node lists are shared, not copied — a descriptor is replaced, never edited.
func compileMemRule(d *cluster.Descriptor, n float64) *memRule {
	if d == nil {
		return nil
	}
	r := &memRule{
		matrix: d.RankBytes.N2OverP * n * n,
		extra:  d.RankBytes.N*n + d.RankBytes.Fixed,
		nodes:  d.Nodes,
		turn:   make([][][]int, len(d.Nodes)),
	}
	for ci, nodes := range d.Nodes {
		r.turn[ci] = make([][]int, len(nodes))
		// Round c passes, in order, the nodes that still have a CPU to give.
		live := make([]int, len(nodes))
		for i := range live {
			live[i] = i
		}
		for c, taken := 1, 0; len(live) > 0; c++ {
			next := live[:0]
			for _, i := range live {
				taken++
				r.turn[ci][i] = append(r.turn[ci][i], taken)
				if nodes[i].CPUs > c {
					next = append(next, i)
				}
			}
			live = next
		}
	}
	return r
}

// fits reports whether every node of the class holds the ranks that pes PEs
// of procs processes each put on it at total process count p: a node's bytes
// are its ranks' requirement added one rank at a time, as NodeResidentBytes
// does, compared with the same >. PEs beyond the class's CPUs never fit.
func (r *memRule) fits(class, pes, procs, p int) bool {
	perRank := r.matrix/float64(p) + r.extra
	placed := 0
	for i, nd := range r.nodes[class] {
		resident := 0.0
		for _, turn := range r.turn[class][i] {
			if turn > pes {
				break
			}
			placed++
			for m := 0; m < procs; m++ {
				resident += perRank
			}
		}
		if resident > nd.MemoryBytes {
			return false
		}
	}
	return placed == pes
}
