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
