// Package machine models the processing elements (PEs) and nodes of the
// simulated heterogeneous cluster. It substitutes for the paper's physical
// testbed (one Athlon 1.33 GHz node plus four dual Pentium-II 400 MHz nodes,
// 768 MB each — paper Table 1).
//
// The model is deliberately richer than the paper's estimation model: kernel
// efficiency depends on operand sizes (per-call overhead and a half-
// performance dimension n_1/2), multiprocessing incurs a super-linear
// overhead, and exceeding node memory incurs a severe swap penalty. These
// are exactly the second-order effects the paper's semi-empirical fit must
// absorb, so they are what make the reproduction non-trivial: the Basic/NL
// campaigns must average them out while the NS campaign is misled by them.
package machine

import (
	"errors"
	"fmt"
)

// Kind distinguishes computational kernel classes with different achievable
// rates.
type Kind int

const (
	// KindGemm is matrix-matrix multiply (the HPL update); compute bound.
	KindGemm Kind = iota
	// KindPanel is panel factorization (pfact); partially memory bound.
	KindPanel
	// KindRowOp is a row-wise O(N²) operation (laswp copies, uptrsv);
	// memory bound.
	KindRowOp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGemm:
		return "gemm"
	case KindPanel:
		return "panel"
	case KindRowOp:
		return "rowop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrBadPE reports an invalid PE specification.
var ErrBadPE = errors.New("machine: invalid PE parameters")

// PEType describes one processor model.
type PEType struct {
	// Name identifies the PE model (e.g. "Athlon-1333").
	Name string
	// GemmPeak is the asymptotic DGEMM rate in flop/s.
	GemmPeak float64
	// PanelPeak is the asymptotic panel-factorization rate in flop/s.
	PanelPeak float64
	// RowOpPeak is the asymptotic rate for memory-bound row operations.
	RowOpPeak float64
	// HalfDim is the operand dimension at which kernels reach half their
	// asymptotic rate (the classic n_1/2). Larger values mean efficiency
	// ramps up more slowly with problem size.
	HalfDim float64
	// KHalf is the n_1/2 for the inner (k) dimension of GEMM, controlling
	// how block size NB translates to efficiency.
	KHalf float64
	// CallOverhead is the fixed cost per kernel invocation in seconds
	// (library call, loop setup, TLB warmup).
	CallOverhead float64
	// MPOverhead is the extra relative cost per additional resident
	// process on the same CPU (scheduler and cache interference): running
	// M processes costs M·(1+MPOverhead·(M−1)) of single-process time.
	MPOverhead float64
	// YieldTax is the residual slowdown per co-resident process during
	// phases where only one process computes (panel factorization,
	// backward substitution) while its siblings wait in a yielding spin
	// loop: cache pollution and scheduler passes cost
	// 1 + YieldTax·(M−1) of single-process time.
	YieldTax float64
	// SwapSlope scales the slowdown when a node's resident set exceeds
	// its memory: time is multiplied by 1 + SwapSlope·(excess ratio).
	SwapSlope float64
}

// Validate reports whether the PE parameters are physically meaningful.
func (p *PEType) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("%w: nil", ErrBadPE)
	case p.GemmPeak <= 0 || p.PanelPeak <= 0 || p.RowOpPeak <= 0:
		return fmt.Errorf("%w: %s has nonpositive peak rate", ErrBadPE, p.Name)
	case p.HalfDim < 0 || p.KHalf < 0 || p.CallOverhead < 0 || p.MPOverhead < 0 || p.YieldTax < 0 || p.SwapSlope < 0:
		return fmt.Errorf("%w: %s has negative parameter", ErrBadPE, p.Name)
	}
	return nil
}

// eff is the classic pipeline-efficiency ramp s/(s+half).
func eff(s, half float64) float64 {
	if half <= 0 {
		return 1
	}
	if s <= 0 {
		return 0
	}
	return s / (s + half)
}

// KernelTime returns the single-process execution time in seconds of one
// kernel invocation on an otherwise idle PE.
//
// For KindGemm, (m, n, k) are the GEMM dimensions (flops = 2·m·n·k) and the
// efficiency depends on both the outer size min(m, n) and the inner size k.
// For KindPanel and KindRowOp, flops are passed via m (n and k ignored by
// convention flops = m) and efficiency depends on the row length n.
func (p *PEType) KernelTime(kind Kind, m, n, k int) float64 {
	switch kind {
	case KindGemm:
		if m <= 0 || n <= 0 || k <= 0 {
			return p.CallOverhead
		}
		flops := 2 * float64(m) * float64(n) * float64(k)
		outer := float64(m)
		if n < m {
			outer = float64(n)
		}
		rate := p.GemmPeak * eff(outer, p.HalfDim) * eff(float64(k), p.KHalf)
		if rate <= 0 {
			return p.CallOverhead
		}
		return p.CallOverhead + flops/rate
	case KindPanel:
		if m <= 0 {
			return p.CallOverhead
		}
		rate := p.PanelPeak * eff(float64(n), p.HalfDim)
		if rate <= 0 {
			return p.CallOverhead
		}
		return p.CallOverhead + float64(m)/rate
	case KindRowOp:
		if m <= 0 {
			return p.CallOverhead
		}
		rate := p.RowOpPeak * eff(float64(n), p.HalfDim/4)
		if rate <= 0 {
			return p.CallOverhead
		}
		return p.CallOverhead + float64(m)/rate
	default:
		panicUnknownKind(kind)
		return 0
	}
}

// panicUnknownKind lives outside KernelTime so that the simulator's
// allocation-free inner loop, which calls it per phase, carries no fmt call.
func panicUnknownKind(kind Kind) {
	panic(fmt.Sprintf("machine: unknown kernel kind %d", kind))
}

// MultiprocFactor returns the multiplier (>= resident) applied to kernel
// times during phases where all `resident` processes on this CPU compute
// concurrently (the HPL update): fair-share division by M plus the
// scheduling/cache interference overhead.
func (p *PEType) MultiprocFactor(resident int) float64 {
	if resident <= 1 {
		return 1
	}
	m := float64(resident)
	return m * (1 + p.MPOverhead*(m-1))
}

// SoloFactor returns the multiplier (>= 1) applied to kernel times during
// phases where one resident process computes while its siblings wait in a
// yielding spin loop (panel factorization, backward substitution).
func (p *PEType) SoloFactor(resident int) float64 {
	if resident <= 1 {
		return 1
	}
	return 1 + p.YieldTax*float64(resident-1)
}

// PressureFactor returns the multiplier (>= 1) applied to kernel times when
// a node's resident data set exceeds its physical memory (paging).
func (p *PEType) PressureFactor(residentBytes, memoryBytes float64) float64 {
	if memoryBytes <= 0 || residentBytes <= memoryBytes {
		return 1
	}
	excess := residentBytes/memoryBytes - 1
	return 1 + p.SwapSlope*excess
}

// Node is one physical machine: identical CPUs sharing memory and a network
// interface.
type Node struct {
	// Name identifies the node (e.g. "node1").
	Name string
	// Type is the CPU model installed in this node.
	Type *PEType
	// CPUs is the number of processors (the paper's P-II nodes are dual).
	CPUs int
	// MemoryBytes is the physical memory shared by all CPUs of the node.
	MemoryBytes float64
}

// Validate reports whether the node specification is usable.
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("%w: nil node", ErrBadPE)
	}
	if err := n.Type.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", n.Name, err)
	}
	if n.CPUs <= 0 {
		return fmt.Errorf("%w: node %s has %d CPUs", ErrBadPE, n.Name, n.CPUs)
	}
	if n.MemoryBytes <= 0 {
		return fmt.Errorf("%w: node %s has no memory", ErrBadPE, n.Name)
	}
	return nil
}

const mib = 1024 * 1024

// NewAthlon returns the PE model calibrated to the paper's AMD Athlon
// 1.33 GHz (effective HPL rate ≈ 1.0–1.2 Gflop/s, about 4–5× a P-II 400).
func NewAthlon() *PEType {
	return &PEType{
		Name:         "Athlon-1333",
		GemmPeak:     1.33e9,
		PanelPeak:    0.45e9,
		RowOpPeak:    0.30e9,
		HalfDim:      95,
		KHalf:        5,
		CallOverhead: 18e-6,
		MPOverhead:   0.055,
		YieldTax:     0.08,
		SwapSlope:    30,
	}
}

// NewPentiumII returns the PE model calibrated to the paper's Intel
// Pentium-II 400 MHz (effective HPL rate ≈ 0.24–0.27 Gflop/s).
func NewPentiumII() *PEType {
	return &PEType{
		Name:         "PentiumII-400",
		GemmPeak:     0.295e9,
		PanelPeak:    0.11e9,
		RowOpPeak:    0.085e9,
		HalfDim:      70,
		KHalf:        4,
		CallOverhead: 45e-6,
		MPOverhead:   0.06,
		YieldTax:     0.1,
		SwapSlope:    30,
	}
}

// NewAthlonNode returns the paper's Node 1 (single Athlon, 768 MB).
func NewAthlonNode(name string) *Node {
	return &Node{Name: name, Type: NewAthlon(), CPUs: 1, MemoryBytes: 768 * mib}
}

// NewPentiumIINode returns one of the paper's Nodes 2–5 (dual P-II, 768 MB).
func NewPentiumIINode(name string) *Node {
	return &Node{Name: name, Type: NewPentiumII(), CPUs: 2, MemoryBytes: 768 * mib}
}

// NewPentiumIII returns a Pentium-III 800 MHz model (a plausible mid-tier
// upgrade of the paper's era) for experiments beyond the paper's testbed.
func NewPentiumIII() *PEType {
	return &PEType{
		Name:         "PentiumIII-800",
		GemmPeak:     0.62e9,
		PanelPeak:    0.22e9,
		RowOpPeak:    0.16e9,
		HalfDim:      80,
		KHalf:        4,
		CallOverhead: 30e-6,
		MPOverhead:   0.05,
		YieldTax:     0.09,
		SwapSlope:    30,
	}
}

// NewAthlonMP returns a dual-capable Athlon MP 1.2 GHz model.
func NewAthlonMP() *PEType {
	return &PEType{
		Name:         "AthlonMP-1200",
		GemmPeak:     1.2e9,
		PanelPeak:    0.42e9,
		RowOpPeak:    0.28e9,
		HalfDim:      95,
		KHalf:        5,
		CallOverhead: 18e-6,
		MPOverhead:   0.055,
		YieldTax:     0.08,
		SwapSlope:    30,
	}
}

// NewPentiumIIINode returns a single-CPU P-III node with 512 MB.
func NewPentiumIIINode(name string) *Node {
	return &Node{Name: name, Type: NewPentiumIII(), CPUs: 1, MemoryBytes: 512 * mib}
}

// NewAthlonMPNode returns a dual Athlon MP node with 1 GiB.
func NewAthlonMPNode(name string) *Node {
	return &Node{Name: name, Type: NewAthlonMP(), CPUs: 2, MemoryBytes: 1024 * mib}
}
