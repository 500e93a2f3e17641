package vmpi

import (
	"fmt"
	"math/bits"
)

// BcastAlg selects the broadcast algorithm.
type BcastAlg int

const (
	// BcastRing forwards the payload around a ring starting at the root,
	// HPL's default ("increasing ring"): each rank receives once and
	// forwards once; the last rank waits ~ (P-1) transfer times. This is
	// the (P−1)·O(N²) behaviour the paper's model assumes.
	BcastRing BcastAlg = iota
	// BcastBinomial uses a binomial tree: log2(P) critical path. Kept as
	// an ablation of the paper's communication-order assumption.
	BcastBinomial
)

// String implements fmt.Stringer.
func (a BcastAlg) String() string {
	switch a {
	case BcastRing:
		return "ring"
	case BcastBinomial:
		return "binomial"
	default:
		return fmt.Sprintf("BcastAlg(%d)", int(a))
	}
}

// Tree places virtual rank v (rank − root mod n) in a broadcast over n
// ranks. The rank receives once from virtual rank parent (-1 at the root),
// then sends to v+m for m = first, first/2, …, 1; every such child is below
// n, and first = 0 marks a leaf. Ring and binomial differ only in these two
// numbers: the ring's parent is v−1 and its only child v+1; in the binomial
// tree the lowest set bit of v is the round in which the rank is reached,
// and its children lie below that bit.
//
//het:hotpath
//het:allocfree
func (a BcastAlg) Tree(v, n int) (parent, first int) {
	if a == BcastRing {
		parent, first = v-1, 1
	} else {
		low := v & -v // 0 at the root, whose children start at the top bit
		parent, first = v-low, low>>1
		if v == 0 {
			parent, first = -1, n
		}
	}
	// Keep the children below n: the first is the largest power of two
	// that fits in the n−1−v ranks after v.
	if room := n - 1 - v; first > room {
		first = 1 << bits.Len(uint(room)) >> 1
	}
	return parent, first
}

// Bcast broadcasts data of the given modelled size from root to all ranks.
// Every rank must call it with the same root, tag, and algorithm. On the
// root, data is the payload; elsewhere the returned message's Data is the
// received payload. The returned elapsed is the virtual time this rank spent
// in the broadcast (send cost on forwarding ranks, wait+receive elsewhere).
func (p *Proc) Bcast(root, tag int, data any, bytes float64, alg BcastAlg) (any, float64) {
	size := p.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("vmpi: bcast with invalid root %d", root))
	}
	if alg != BcastRing && alg != BcastBinomial {
		panic(fmt.Sprintf("vmpi: unknown broadcast algorithm %d", alg))
	}
	v := (p.rank - root + size) % size
	parent, first := alg.Tree(v, size)
	var elapsed float64
	if parent >= 0 {
		msg, wait := p.Recv((parent+root)%size, tag)
		data, elapsed = msg.Data, wait
	}
	for m := first; m > 0; m >>= 1 {
		elapsed += p.Send((v+m+root)%size, tag, data, bytes)
	}
	return data, elapsed
}

// Barrier synchronizes all ranks: a gather to rank 0 followed by a
// zero-byte broadcast. All ranks must call it with the same tag. It returns
// the virtual time spent waiting.
func (p *Proc) Barrier(tag int) float64 {
	size := p.world.size
	if size == 1 {
		return 0
	}
	var elapsed float64
	if p.rank == 0 {
		// Gather: wait for everyone.
		for r := 1; r < size; r++ {
			_, w := p.Recv(r, tag)
			elapsed += w
		}
	} else {
		elapsed += p.Send(0, tag, nil, 0)
	}
	_, e := p.Bcast(0, tag+1, nil, 0, BcastBinomial)
	return elapsed + e
}
