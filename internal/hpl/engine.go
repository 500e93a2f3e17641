package hpl

import (
	"errors"
	"fmt"
	"math"

	"hetmodel/internal/cluster"
	"hetmodel/internal/vmpi"
)

// The phantom engine evaluates a run's virtual clocks on the caller's
// goroutine. A phantom run moves no data and each rank's control flow depends
// only on (rank, panel), so the goroutines, mailbox locks and wake-ups of the
// vmpi world compute nothing a sequential evaluation of the same clock
// recurrence would not. Each rank is a resumable state machine; the scheduler
// runs one until it blocks on a message, then runs the rank it waits for.
//
// Message semantics are vmpi's: an eager send pays the transfer time and
// posts the availability time; a rendezvous send posts a request carrying
// the transfer time and blocks until the receiver, on reaching its receive,
// stamps completion max(sender, receiver) + dt and acknowledges it; receives
// match the first queued message with their (source, tag). A rank's clock
// depends only on its own program and on the messages it matches, never on
// the interleaving, so any schedule — vmpi's goroutines or this one — yields
// the same clocks; performing the float operations in the same order as the
// vmpi body (run.go) makes them identical to the bit.

// Envelope kinds, as in vmpi's protocol matching.
const (
	kindEager = 1 << iota
	kindRTS
	kindAck
)

// envelope is one queued message. A phantom run carries no payload.
type envelope struct {
	src, tag int
	kind     uint8
	// availAt is the sender's virtual time at which the data exists (on an
	// acknowledgement: the completion time of the transfer).
	availAt float64
	// dt is the transfer duration a rendezvous request carries.
	dt float64
}

// bcastState is a rank's position inside one broadcast. Ring and binomial
// are the same walk over virtual ranks (rank − root mod P): receive once from
// the parent, then send to the children vrank+mask for halving masks. The
// ring's parent is vrank−1 and its only mask is 1.
type bcastState struct {
	root, tag int
	bytes     float64
	// parent is the rank still to receive from, -1 when none (the root) or
	// already received.
	parent int
	// mask is the distance to the next child to send to; 0 when none remain.
	mask int
	// elapsed accumulates the rank's virtual time inside the broadcast.
	elapsed float64
}

// engineRank is the communication state of one rank.
type engineRank struct {
	clock float64
	inbox []envelope
	// waitOn is the rank whose message this rank last blocked on.
	waitOn int
	// rtsPosted marks a rendezvous send whose request is out and whose
	// acknowledgement has not arrived.
	rtsPosted bool
	bc        bcastState
}

// engine is the single-threaded virtual-time message layer under a phantom
// run: per-rank clocks and inboxes, and the scheduler.
type engine struct {
	pl    *cluster.Placement
	ranks []engineRank
	// ops counts envelopes posted and taken: the scheduler's measure of
	// whether a step changed anything another rank could observe.
	ops int
}

// inboxCap is each inbox's initial capacity. The ring keeps a sender at most
// one owner rotation ahead of its receiver, so queues stay a few envelopes
// deep; a deeper one grows on its own.
const inboxCap = 8

func newEngine(pl *cluster.Placement) *engine {
	P := pl.P()
	e := &engine{pl: pl, ranks: make([]engineRank, P)}
	boxes := make([]envelope, P*inboxCap)
	for r := range e.ranks {
		e.ranks[r].inbox = boxes[r*inboxCap : r*inboxCap : (r+1)*inboxCap]
	}
	return e
}

// errDeadlock reports a program whose ranks wait on each other, or on a
// rank that has finished.
var errDeadlock = errors.New("hpl: deadlock in phantom run")

// run drives every rank's program to completion. step advances one rank
// until it finishes (true) or blocks (false, with waitOn naming the rank
// whose message it needs); run then follows the wait chain to that rank. A
// chain of more than P blocked ranks with no envelope moved in between has
// revisited a rank that still cannot proceed: a deadlock, returned as an
// error where the vmpi world would hang.
func (e *engine) run(step func(rank int) bool) error {
	P := len(e.ranks)
	finished := make([]bool, P)
	cur, chain := 0, 0
	for left := P; left > 0; {
		before := e.ops
		if step(cur) {
			finished[cur] = true
			left--
			chain = 0
			for cur = 0; cur < P && finished[cur]; cur++ {
			}
			continue
		}
		if e.ops != before {
			chain = 0
		}
		chain++
		peer := e.ranks[cur].waitOn
		if finished[peer] || chain > P {
			return fmt.Errorf("%w: rank %d waits on rank %d, which cannot proceed", errDeadlock, cur, peer)
		}
		cur = peer
	}
	return nil
}

// advance adds dt virtual seconds of local work to the rank's clock.
// Non-positive or NaN dt is ignored, as vmpi.Proc.Advance does.
func (e *engine) advance(rank int, dt float64) {
	if dt <= 0 || math.IsNaN(dt) {
		return
	}
	e.ranks[rank].clock += dt
}

// post queues m at dst.
//
//het:hotpath
//het:allocfree
func (e *engine) post(dst int, m envelope) {
	r := &e.ranks[dst]
	r.inbox = append(r.inbox, m) //het:allow hotpath allocfree -- reuses the inbox's capacity; a queue deeper than inboxCap grows once and keeps the room for the rest of the run
	e.ops++
}

// take removes and returns the first envelope queued at rank that matches
// (src, tag, kinds).
//
//het:hotpath
//het:allocfree
func (e *engine) take(rank, src, tag int, kinds uint8) (envelope, bool) {
	box := e.ranks[rank].inbox
	for i := range box {
		if m := box[i]; m.src == src && m.tag == tag && m.kind&kinds != 0 {
			copy(box[i:], box[i+1:])
			e.ranks[rank].inbox = box[:len(box)-1]
			e.ops++
			return m, true
		}
	}
	return envelope{}, false
}

// send transmits bytes from rank to dst and returns the virtual seconds the
// sender spent. It reports false when a rendezvous send is still waiting for
// its acknowledgement; calling it again resumes the wait.
//
//het:hotpath
//het:allocfree
func (e *engine) send(rank, dst, tag int, bytes float64) (float64, bool) {
	r := &e.ranks[rank]
	start := r.clock
	if !r.rtsPosted {
		dt := e.pl.TransferTime(bytes, rank, dst)
		if dt < 0 || math.IsNaN(dt) {
			dt = 0
		}
		if !e.pl.Rendezvous(bytes, rank, dst) {
			r.clock += dt
			e.post(dst, envelope{src: rank, tag: tag, kind: kindEager, availAt: r.clock})
			return r.clock - start, true
		}
		e.post(dst, envelope{src: rank, tag: tag, kind: kindRTS, availAt: r.clock, dt: dt})
		r.rtsPosted = true
	}
	ack, ok := e.take(rank, dst, tag, kindAck)
	if !ok {
		r.waitOn = dst
		return 0, false
	}
	r.rtsPosted = false
	if ack.availAt > r.clock {
		r.clock = ack.availAt
	}
	return r.clock - start, true
}

// recv matches a message from src and returns the virtual seconds the rank
// waited for it. It reports false when none is queued yet.
//
//het:hotpath
//het:allocfree
func (e *engine) recv(rank, src, tag int) (float64, bool) {
	m, ok := e.take(rank, src, tag, kindEager|kindRTS)
	r := &e.ranks[rank]
	if !ok {
		r.waitOn = src
		return 0, false
	}
	start := r.clock
	if m.kind == kindRTS {
		// Rendezvous: stamp the completion time and release the sender
		// with it.
		if m.availAt > r.clock {
			r.clock = m.availAt
		}
		r.clock += m.dt
		e.post(src, envelope{src: rank, tag: tag, kind: kindAck, availAt: r.clock})
	} else if m.availAt > r.clock {
		r.clock = m.availAt
	}
	return r.clock - start, true
}

// startBcast positions rank at the beginning of a broadcast; bcastStep then
// carries it through.
func (e *engine) startBcast(rank, root, tag int, bytes float64, alg vmpi.BcastAlg) {
	size := len(e.ranks)
	vrank := (rank - root + size) % size
	bc := bcastState{root: root, tag: tag, bytes: bytes, parent: -1, mask: 1}
	if alg == vmpi.BcastRing {
		if vrank != 0 {
			bc.parent = (rank - 1 + size) % size
		}
	} else {
		// Binomial tree: the lowest set bit of vrank is the round in which
		// the rank is reached; its children lie below that bit.
		if vrank != 0 {
			for vrank&bc.mask == 0 {
				bc.mask <<= 1
			}
			bc.parent = (vrank&^bc.mask + root) % size
		} else {
			for bc.mask < size {
				bc.mask <<= 1
			}
		}
		bc.mask >>= 1
	}
	e.ranks[rank].bc = bc
}

// bcastStep advances rank through its current broadcast and reports whether
// it completed; bc.elapsed then holds the rank's time inside it (send cost on
// forwarding ranks, wait and receive elsewhere).
func (e *engine) bcastStep(rank int) bool {
	size := len(e.ranks)
	bc := &e.ranks[rank].bc
	if bc.parent >= 0 {
		wait, ok := e.recv(rank, bc.parent, bc.tag)
		if !ok {
			return false
		}
		bc.elapsed += wait
		bc.parent = -1
	}
	vrank := (rank - bc.root + size) % size
	for ; bc.mask > 0; bc.mask >>= 1 {
		if child := vrank + bc.mask; child < size {
			spent, ok := e.send(rank, (child+bc.root)%size, bc.tag, bc.bytes)
			if !ok {
				return false
			}
			bc.elapsed += spent
		}
	}
	return true
}

// Program counters of a rank's HPL state machine.
const (
	pcPanel     = iota // at the top of panel j's iteration
	pcBcast            // inside panel j's broadcast
	pcEarly            // inside the early broadcast of panel j+1 (lookahead)
	pcChainRecv        // backward substitution: before the hop into panel j
	pcChainSend        // backward substitution: before the hop out of panel j
)

// hplRank is one rank's position in the HPL program.
type hplRank struct {
	pc int
	// j is the current panel: ascending through the factorization, then
	// descending over the rank's own panels in the substitution chain.
	j int
	// ahead is the panel this rank factored and broadcast ahead of schedule
	// (depth-1 lookahead), -1 when none.
	ahead int
}

// hplProgram is the control skeleton of runWorld's rank body — panel loop,
// lookahead branch, substitution chain — as a state machine over the engine.
// It charges the same phaseCosts in the same order.
type hplProgram struct {
	e     *engine
	c     *phaseCosts
	alg   vmpi.BcastAlg
	ranks []hplRank
	// timing is the result's per-rank table, filled in place.
	timing []RankTiming
}

func newHPLProgram(pl *cluster.Placement, c *phaseCosts, alg vmpi.BcastAlg, timing []RankTiming) *hplProgram {
	h := &hplProgram{e: newEngine(pl), c: c, alg: alg, ranks: make([]hplRank, pl.P()), timing: timing}
	for r := range h.ranks {
		h.ranks[r].ahead = -1
	}
	return h
}

// runEngine evaluates a phantom run on the caller's goroutine, filling
// res.PerRank.
func runEngine(pl *cluster.Placement, c *phaseCosts, alg vmpi.BcastAlg, res *Result) error {
	h := newHPLProgram(pl, c, alg, res.PerRank)
	return h.e.run(h.step)
}

// step runs rank until it finishes (true) or blocks on a message (false).
//
//het:hotpath
//het:allocfree
func (h *hplProgram) step(rank int) bool {
	e, c, lay := h.e, h.c, h.c.lay
	r, t := &h.ranks[rank], &h.timing[rank]
	for {
		switch r.pc {
		case pcPanel:
			j := r.j
			if j == lay.NumPanels() {
				// Factorization done: the chain starts at the rank's last
				// panel (below zero when it owns none).
				r.j = rank + (lay.owned(rank, j)-1)*lay.P()
				r.pc = pcChainRecv
				continue
			}
			if rank == lay.Owner(j) {
				if r.ahead == j {
					// Factored ahead, and the owner's share of the
					// broadcast already went out.
					r.ahead = -1
					h.trailing(rank)
					continue
				}
				h.factor(rank, j)
			}
			e.startBcast(rank, lay.Owner(j), j, c.panelBytes(j), h.alg)
			r.pc = pcBcast
		case pcBcast:
			if !e.bcastStep(rank) {
				return false
			}
			t.addBcast(e.ranks[rank].bc.elapsed, c.panelRows(r.j))
			h.trailing(rank)
		case pcEarly:
			if !e.bcastStep(rank) {
				return false
			}
			t.Bcast += e.ranks[rank].bc.elapsed
			r.ahead = r.j + 1
			// The rest of the trailing update, behind the panel sent ahead.
			h.update(rank, r.j, lay.TrailingLocalCols(rank, r.j)-lay.Width(r.ahead))
			r.j++
			r.pc = pcPanel
		case pcChainRecv:
			j := r.j
			if j < 0 {
				// Absolute measurement jitter lands in the dominant
				// (update) phase.
				if off := c.offsets[rank]; off > 0 {
					e.advance(rank, off)
					t.Update += off
				}
				t.Wall = e.ranks[rank].clock
				return true
			}
			if j < lay.NumPanels()-1 && lay.Owner(j+1) != rank {
				wait, ok := e.recv(rank, lay.Owner(j+1), c.chainTag(j+1))
				if !ok {
					return false
				}
				t.Uptrsv += wait
			}
			dt := c.uptrsv(rank, j)
			e.advance(rank, dt)
			t.Uptrsv += dt
			r.pc = pcChainSend
		case pcChainSend:
			j := r.j
			if j > 0 && lay.Owner(j-1) != rank {
				spent, ok := e.send(rank, lay.Owner(j-1), c.chainTag(j), c.chainBytes())
				if !ok {
					return false
				}
				t.Uptrsv += spent
			}
			r.j -= lay.P()
			r.pc = pcChainRecv
		}
	}
}

// factor charges panel j's factorization.
func (h *hplProgram) factor(rank, j int) {
	dt := h.c.pfact(rank, j)
	h.e.advance(rank, dt)
	h.timing[rank].Pfact += dt
}

// update charges the trailing update of cols columns by panel j.
func (h *hplProgram) update(rank, j, cols int) {
	if cols <= 0 {
		return
	}
	dt := h.c.update(rank, j, cols)
	h.e.advance(rank, dt)
	h.timing[rank].Update += dt
}

// trailing runs what follows panel j's broadcast: the row interchanges and
// the trailing update, up to the early broadcast when the rank looks ahead.
func (h *hplProgram) trailing(rank int) {
	c, lay := h.c, h.c.lay
	r := &h.ranks[rank]
	j := r.j
	if cols := c.laswpCols(rank, j); cols > 0 {
		dt := c.laswp(rank, j, cols)
		h.e.advance(rank, dt)
		h.timing[rank].Laswp += dt
	}
	ct := lay.TrailingLocalCols(rank, j)
	if c.lookaheadSplit(rank, j, ct) {
		// Update and factor the next panel first and start its broadcast
		// (the owner's share only; receivers pick it up at their own pace).
		next := j + 1
		h.update(rank, j, lay.Width(next))
		h.factor(rank, next)
		h.e.startBcast(rank, rank, next, c.panelBytes(next), h.alg)
		r.pc = pcEarly
		return
	}
	h.update(rank, j, ct)
	r.j++
	r.pc = pcPanel
}
