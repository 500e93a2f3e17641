// Package cluster assembles the simulated heterogeneous cluster (machine
// nodes + communication fabric) and defines the configuration space the
// paper optimizes over: which PEs to use and how many processes to run on
// each (the paper's P1, M1, P2, M2 — generalized to any number of PE
// classes).
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hetmodel/internal/machine"
	"hetmodel/internal/simnet"
)

// ErrBadCluster reports an invalid cluster description.
var ErrBadCluster = errors.New("cluster: invalid cluster")

// ErrBadConfig reports a configuration incompatible with the cluster.
var ErrBadConfig = errors.New("cluster: invalid configuration")

// Class groups identical nodes (same CPU model) into one PE class, the unit
// over which the paper's models are built.
type Class struct {
	// Name identifies the class (e.g. "Athlon").
	Name string
	// Nodes are the physical machines of this class.
	Nodes []*machine.Node
}

// PEs returns the total number of processors in the class.
func (c *Class) PEs() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.CPUs
	}
	return total
}

// Type returns the PE model of the class (all nodes share it).
func (c *Class) Type() *machine.PEType {
	if len(c.Nodes) == 0 {
		return nil
	}
	return c.Nodes[0].Type
}

// Cluster is the complete simulated machine.
type Cluster struct {
	Classes []Class
	Fabric  *simnet.Fabric
}

// New validates and assembles a cluster.
func New(classes []Class, fabric *simnet.Fabric) (*Cluster, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadCluster)
	}
	if fabric == nil {
		return nil, fmt.Errorf("%w: nil fabric", ErrBadCluster)
	}
	for i := range classes {
		c := &classes[i]
		if len(c.Nodes) == 0 {
			return nil, fmt.Errorf("%w: class %s has no nodes", ErrBadCluster, c.Name)
		}
		for _, n := range c.Nodes {
			if err := n.Validate(); err != nil {
				return nil, fmt.Errorf("%w: class %s: %v", ErrBadCluster, c.Name, err)
			}
			if n.Type.Name != c.Nodes[0].Type.Name {
				return nil, fmt.Errorf("%w: class %s mixes PE types", ErrBadCluster, c.Name)
			}
		}
	}
	return &Cluster{Classes: classes, Fabric: fabric}, nil
}

// NewPaper builds the paper's Table 1 testbed: one Athlon 1.33 GHz node and
// four dual-Pentium-II 400 MHz nodes on a 100base-TX network, using the
// given messaging library (the paper's measurements use MPICH-1.2.5, whose
// intra-node behaviour matches the 1.2.2-like preset).
func NewPaper(lib *simnet.CommLibrary) (*Cluster, error) {
	fabric, err := simnet.NewFabric(lib, simnet.NewFast100TX())
	if err != nil {
		return nil, err
	}
	athlon := Class{Name: "Athlon", Nodes: []*machine.Node{machine.NewAthlonNode("node1")}}
	pii := Class{Name: "PentiumII"}
	for i := 2; i <= 5; i++ {
		pii.Nodes = append(pii.Nodes, machine.NewPentiumIINode(fmt.Sprintf("node%d", i)))
	}
	return New([]Class{athlon, pii}, fabric)
}

// ClassUse is the per-class part of a configuration: the paper's (Pi, Mi).
type ClassUse struct {
	// PEs is the number of processors of the class to use (Pi).
	PEs int
	// Procs is the number of processes per used PE (Mi).
	Procs int
}

// Configuration selects PEs and process counts for every class; it is the
// decision variable of the paper's optimization.
type Configuration struct {
	Use []ClassUse
}

// TotalProcs returns P = Σ Pi·Mi, the total process count.
func (c Configuration) TotalProcs() int {
	total := 0
	for _, u := range c.Use {
		total += u.PEs * u.Procs
	}
	return total
}

// Normalize returns a copy with Procs zeroed wherever PEs is zero (and vice
// versa), so equivalent configurations compare equal.
func (c Configuration) Normalize() Configuration {
	out := Configuration{Use: make([]ClassUse, len(c.Use))}
	copy(out.Use, c.Use)
	for i := range out.Use {
		if out.Use[i].PEs <= 0 || out.Use[i].Procs <= 0 {
			out.Use[i] = ClassUse{}
		}
	}
	return out
}

// Key returns a canonical string identity (after normalization), usable as
// a map key. It normalizes inline and builds the string with strconv, so
// the only allocation is the returned string — it is called once per
// simulated rank and per cache probe in the sweep loops.
func (c Configuration) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, u := range c.Use {
		if i > 0 {
			b = append(b, ';')
		}
		pes, procs := u.PEs, u.Procs
		if pes <= 0 || procs <= 0 {
			pes, procs = 0, 0
		}
		b = strconv.AppendInt(b, int64(pes), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(procs), 10)
	}
	return string(b)
}

// String renders the paper's (P1, M1, P2, M2, ...) notation.
func (c Configuration) String() string {
	var parts []string
	for _, u := range c.Use {
		parts = append(parts, fmt.Sprintf("%d,%d", u.PEs, u.Procs))
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// RankPlace records where one process (rank) runs.
type RankPlace struct {
	// Class is the index of the PE class in the cluster.
	Class int
	// NodeID is the cluster-global node index.
	NodeID int
	// CPU is the processor index within the node.
	CPU int
	// Resident is the number of ranks sharing that CPU (the class's Mi).
	Resident int
	// Type is the PE model executing this rank.
	Type *machine.PEType
	// Node is the physical machine hosting this rank.
	Node *machine.Node
}

// Placement is a concrete assignment of ranks to CPUs.
type Placement struct {
	Config  Configuration
	Ranks   []RankPlace
	cluster *Cluster
}

// Place assigns ranks for cfg on the cluster: for each class,
// cfg.Use[i].PEs processors are chosen round-robin across the class's nodes
// (first CPU of every node, then second, ...) so partial selections spread
// over nodes — balancing memory and network load, as a machinefile listing
// hosts before repeating them does. Each chosen CPU runs cfg.Use[i].Procs
// ranks. Ranks are numbered class-major, then CPU-major, then process
// index, so a PE's processes are contiguous.
func (cl *Cluster) Place(cfg Configuration) (*Placement, error) {
	if len(cfg.Use) != len(cl.Classes) {
		return nil, fmt.Errorf("%w: %d class uses for %d classes", ErrBadConfig, len(cfg.Use), len(cl.Classes))
	}
	cfg = cfg.Normalize()
	if cfg.TotalProcs() == 0 {
		return nil, fmt.Errorf("%w: no processes", ErrBadConfig)
	}
	pl := &Placement{Config: cfg, cluster: cl}
	nodeBase := 0
	for ci := range cl.Classes {
		class := &cl.Classes[ci]
		use := cfg.Use[ci]
		if use.PEs > class.PEs() {
			return nil, fmt.Errorf("%w: class %s has %d PEs, requested %d",
				ErrBadConfig, class.Name, class.PEs(), use.PEs)
		}
		// Enumerate the class's CPUs round-robin across nodes (CPU 0 of
		// each node first, then CPU 1, ...) and take the first PEs.
		maxCPUs := 0
		for _, node := range class.Nodes {
			if node.CPUs > maxCPUs {
				maxCPUs = node.CPUs
			}
		}
		taken := 0
		for cpu := 0; cpu < maxCPUs && taken < use.PEs; cpu++ {
			for ni, node := range class.Nodes {
				if cpu >= node.CPUs || taken >= use.PEs {
					continue
				}
				for m := 0; m < use.Procs; m++ {
					pl.Ranks = append(pl.Ranks, RankPlace{
						Class:    ci,
						NodeID:   nodeBase + ni,
						CPU:      cpu,
						Resident: use.Procs,
						Type:     node.Type,
						Node:     node,
					})
				}
				taken++
			}
		}
		nodeBase += len(class.Nodes)
	}
	return pl, nil
}

// P returns the total number of ranks.
func (pl *Placement) P() int { return len(pl.Ranks) }

// SameNode reports whether two ranks share a physical node.
func (pl *Placement) SameNode(a, b int) bool {
	return pl.Ranks[a].NodeID == pl.Ranks[b].NodeID
}

// TransferTime implements the vmpi transfer model for this placement.
//
// Beyond the fabric's path model it accounts for multiprocessing effects of
// a busy-waiting MPI library: intra-node transfers whose endpoints share a
// crowded CPU are slowed by the spin contention of the co-resident
// processes (both memcpy endpoints need the CPU), and every message touching
// a crowded CPU pays a scheduling delay (full for same-CPU exchanges, half
// when only one endpoint's CPU is crowded).
func (pl *Placement) TransferTime(bytes float64, src, dst int) float64 {
	rs, rd := &pl.Ranks[src], &pl.Ranks[dst]
	lib := pl.cluster.Fabric.Library
	sameNode := rs.NodeID == rd.NodeID
	t := pl.cluster.Fabric.TransferTime(bytes, sameNode)
	maxRes, typ := rs.Resident, rs.Type
	if rd.Resident > maxRes {
		maxRes, typ = rd.Resident, rd.Type
	}
	if maxRes > 1 {
		if sameNode {
			t *= typ.SoloFactor(maxRes)
		}
		sched := lib.CoResidentDelay * float64(maxRes-1)
		if sameNode && rs.CPU == rd.CPU {
			t += sched
		} else {
			t += 0.5 * sched
		}
	}
	return t
}

// Rendezvous implements the vmpi protocol predicate: messages above the
// library's eager threshold for their path block the sender until the
// receiver posts.
func (pl *Placement) Rendezvous(bytes float64, src, dst int) bool {
	return pl.cluster.Fabric.NeedsRendezvous(bytes, pl.SameNode(src, dst))
}

// NodeResidentBytes sums perRankBytes over the ranks of each node, returning
// a map from NodeID to resident bytes. Used for the memory-pressure model.
func (pl *Placement) NodeResidentBytes(perRankBytes func(rank int) float64) map[int]float64 {
	out := make(map[int]float64)
	for r, rp := range pl.Ranks {
		out[rp.NodeID] += perRankBytes(r)
	}
	return out
}
