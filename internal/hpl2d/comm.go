package hpl2d

import "hetmodel/internal/vmpi"

// comm provides group collectives over explicit member lists on the flat
// vmpi world — the role MPI sub-communicators play in ScaLAPACK. Members
// must be listed in the same order on every participant.
type comm struct {
	p *vmpi.Proc
}

// indexOf returns the caller's position in members, or -1.
func (c comm) indexOf(members []int) int {
	for i, m := range members {
		if m == c.p.Rank() {
			return i
		}
	}
	return -1
}

// bcast broadcasts data from members[rootIdx] over the members with alg:
// vmpi's broadcast tree, its virtual ranks mapped through the member list.
// Every member must call it. Returns the payload and elapsed virtual time.
func (c comm) bcast(alg vmpi.BcastAlg, members []int, rootIdx, tag int, data any, bytes float64) (any, float64) {
	n := len(members)
	v := (c.indexOf(members) - rootIdx + n) % n
	parent, first := alg.Tree(v, n)
	var elapsed float64
	if parent >= 0 {
		msg, wait := c.p.Recv(members[(parent+rootIdx)%n], tag)
		data, elapsed = msg.Data, wait
	}
	for m := first; m > 0; m >>= 1 {
		elapsed += c.p.Send(members[(v+m+rootIdx)%n], tag, data, bytes)
	}
	return data, elapsed
}

// allreduceMaxPivot selects the pivot over all members on vmpi's binomial
// tree rooted at members[0]: a reduction that walks the tree backwards
// (children in ascending order, then up to the parent), then a broadcast of
// the winner down the same tree. The candidate travels inline in the
// message envelope (SendScalars/RecvScalars), so the per-column reduction
// allocates nothing.
func (c comm) allreduceMaxPivot(members []int, tag int, cand pivotCand, bytes float64) (pivotCand, float64) {
	me := c.indexOf(members)
	parent, first := vmpi.BcastBinomial.Tree(me, len(members))
	var reduce, bcast float64
	for m := 1; m <= first; m <<= 1 {
		f, r, wait := c.p.RecvScalars(members[me+m], tag)
		reduce += wait
		if f > cand.Abs || (f == cand.Abs && r < cand.Row) {
			cand = pivotCand{Abs: f, Row: r}
		}
	}
	if parent >= 0 {
		reduce += c.p.SendScalars(members[parent], tag, cand.Abs, cand.Row, bytes)
		f, r, wait := c.p.RecvScalars(members[parent], tag+1)
		cand, bcast = pivotCand{Abs: f, Row: r}, wait
	}
	for m := first; m > 0; m >>= 1 {
		bcast += c.p.SendScalars(members[me+m], tag+1, cand.Abs, cand.Row, bytes)
	}
	return cand, reduce + bcast
}

// sendrecvSwap exchanges payloads with a peer in deadlock-safe order (the
// lower world rank sends first). Returns the peer's payload.
func (c comm) sendrecvSwap(peer, tag int, data any, bytes float64) (any, float64) {
	var elapsed float64
	if c.p.Rank() < peer {
		elapsed += c.p.Send(peer, tag, data, bytes)
		msg, wait := c.p.Recv(peer, tag)
		return msg.Data, elapsed + wait
	}
	msg, wait := c.p.Recv(peer, tag)
	elapsed += wait
	elapsed += c.p.Send(peer, tag, data, bytes)
	return msg.Data, elapsed
}
