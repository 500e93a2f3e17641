// Package vmpi implements a virtual-time message-passing runtime: the MPI
// substitute the HPL reproduction is simulated on.
//
// Schedule runs ranks one at a time on the caller's goroutine; the HPL
// engine (internal/hpl) steps its rank state machines under it, and its
// broadcasts place ranks with BcastAlg.Tree. World runs a rank body per
// rank as a coroutine under the same scheduler, the runtime of the 2D-grid
// HPL (internal/hpl2d). Sends are eager and buffered: the sender pays the
// transfer time on its clock and the message records when its data is
// available. A receive that finds no matching message yields to the
// scheduler, which runs the rank it waits on; once the message exists the
// receiver advances its virtual clock to max(own clock, availability). A
// rank's clock depends only on its own program and the messages it matches,
// never on the schedule, so the simulation of blocking MPI semantics is
// deterministic without a global event queue, while still moving real
// payload data. Ranks that wait on each other are reported as ErrDeadlock.
// A Tracer records each rank's compute spans and messages.
//
// Timing is injected via a TransferTime function, typically backed by
// internal/simnet, so intra-node and inter-node paths and library software
// costs are modelled by the fabric, not here.
package vmpi

import (
	"errors"
	"fmt"
	"iter"
	"math"
)

// TransferTime returns the one-way virtual seconds needed to move `bytes`
// from rank src to rank dst.
type TransferTime func(bytes float64, src, dst int) float64

// RendezvousFn decides whether a message uses the rendezvous protocol
// (sender blocks until the receiver posts the receive, as MPICH does above
// its eager threshold) instead of eager buffered delivery. nil means all
// messages are eager.
type RendezvousFn func(bytes float64, src, dst int) bool

// message kinds for protocol matching.
const (
	kindEager = 1 << iota
	kindRTS
	kindAck
)

// Message is a delivered point-to-point payload. The pointer returned by
// Recv aliases per-Proc scratch and is valid only until the next Recv on
// the same Proc; the Data payload it carries may be retained.
type Message struct {
	Src, Tag int
	// Data is the payload; nil in timing-only (phantom) runs.
	Data any
	// Bytes is the modelled payload size used for timing.
	Bytes float64
	// valF and valI carry a scalar pair inline for SendScalars/RecvScalars,
	// sparing the hot reduction paths the allocation of boxing into Data.
	valF float64
	valI int
	// availAt is the sender's virtual time at which the data exists.
	availAt float64
	// dt is the precomputed transfer duration a rendezvous RTS carries so
	// the receiver can stamp the completion time itself.
	dt float64
	// kind distinguishes eager payloads from rendezvous protocol steps.
	kind int
}

// World is one communicator: a fixed set of ranks and a transfer model.
type World struct {
	size       int
	transfer   TransferTime
	rendezvous RendezvousFn
	tracer     *Tracer
	// boxes holds each rank's queued messages in arrival order.
	boxes [][]Message
	// moves counts messages posted and taken: the scheduler's measure of
	// progress.
	moves int
}

// ErrBadWorld reports invalid world construction parameters.
var ErrBadWorld = errors.New("vmpi: invalid world")

// ErrDeadlock reports ranks that wait on each other, or on a rank that has
// finished.
var ErrDeadlock = errors.New("vmpi: deadlock")

// NewWorld creates a communicator of `size` ranks with the given transfer
// model.
func NewWorld(size int, transfer TransferTime) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: size %d", ErrBadWorld, size)
	}
	if transfer == nil {
		return nil, fmt.Errorf("%w: nil transfer model", ErrBadWorld)
	}
	return &World{size: size, transfer: transfer, boxes: make([][]Message, size)}, nil
}

// SetRendezvous installs the protocol-selection predicate. Call before Run.
func (w *World) SetRendezvous(fn RendezvousFn) { w.rendezvous = fn }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes body once per rank and returns each rank's final virtual
// clock. Each rank is a coroutine; Schedule runs them one at a time on the
// caller's goroutine. Ranks that wait on each other make Run return an error
// wrapping ErrDeadlock, and a panic in a rank is re-raised on the caller.
// Every coroutine is stopped before Run returns.
func (w *World) Run(body func(p *Proc)) ([]float64, error) {
	for r, box := range w.boxes {
		clear(box) // a deadlocked run may leave payloads queued
		w.boxes[r] = box[:0]
	}
	procs := make([]Proc, w.size)
	next := make([]func() (int, bool), w.size)
	stops := make([]func(), w.size)
	for r := range procs {
		p := &procs[r]
		p.world, p.rank = w, r
		next[r], stops[r] = iter.Pull(p.coroutine(body))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	err := Schedule(w.size, &w.moves, func(rank int) int {
		if on, ok := next[rank](); ok {
			return on
		}
		return -1
	})
	if err != nil {
		return nil, err
	}
	clocks := make([]float64, w.size)
	for r := range procs {
		clocks[r] = procs[r].clock
	}
	return clocks, nil
}

// Schedule runs ranks 0..n-1 to completion, one at a time on the caller's
// goroutine. step advances rank until it finishes, returning -1, or blocks
// on a message, returning the rank it waits for; Schedule then runs that
// rank, following the wait chain, and after a rank finishes resumes the
// lowest unfinished one. *moves counts the messages the ranks have posted
// and taken: a chain of more than n blocked ranks with no message moved in
// between has revisited a rank that still cannot proceed, and Schedule
// returns an error wrapping ErrDeadlock.
//
// World.Run steps coroutines with it; the HPL engine steps its hand-written
// rank state machines.
func Schedule(n int, moves *int, step func(rank int) int) error {
	if rank, peer := schedule(make([]bool, n), moves, step); rank >= 0 {
		return fmt.Errorf("%w: rank %d waits on rank %d, which cannot proceed", ErrDeadlock, rank, peer)
	}
	return nil
}

// schedule is Schedule's loop: one step call per block. It returns -1, -1
// when every rank finished, or the blocked rank and the peer it waits on.
//
//het:hotpath
//het:allocfree
func schedule(finished []bool, moves *int, step func(rank int) int) (rank, peer int) {
	n := len(finished)
	cur, chain := 0, 0
	for left := n; left > 0; {
		before := *moves
		on := step(cur)
		if on < 0 {
			finished[cur] = true
			left--
			chain = 0
			for cur = 0; cur < n && finished[cur]; cur++ {
			}
			continue
		}
		if *moves != before {
			chain = 0
		}
		chain++
		if finished[on] || chain > n {
			return cur, on
		}
		cur = on
	}
	return -1, -1
}

// errStopped unwinds a rank whose coroutine Run stops while it waits.
var errStopped = errors.New("vmpi: rank stopped")

// coroutine wraps body as the rank's coroutine: yielding the rank it waits
// on, and unwinding when Run stops it.
func (p *Proc) coroutine(body func(p *Proc)) iter.Seq[int] {
	return func(yield func(int) bool) {
		defer func() {
			if v := recover(); v != nil && v != errStopped {
				panic(v)
			}
		}()
		p.yield = yield
		body(p)
	}
}

// Proc is the per-rank handle passed to the Run body.
type Proc struct {
	world *World
	rank  int
	clock float64
	// yield suspends the rank's coroutine, naming the rank it waits on.
	yield func(int) bool

	// last is the scratch the most recent receive was copied into; Recv
	// returns &last.
	last Message
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the communicator size.
func (p *Proc) Size() int { return p.world.size }

// Clock returns the current virtual time of this rank.
func (p *Proc) Clock() float64 { return p.clock }

// Advance adds dt virtual seconds of local work to this rank's clock and
// returns dt for accounting convenience. Negative or NaN dt is ignored.
func (p *Proc) Advance(dt float64) float64 {
	if dt <= 0 || math.IsNaN(dt) {
		return 0
	}
	if tr := p.world.tracer; tr != nil {
		tr.Record(TraceEvent{Rank: p.rank, Name: "compute", Start: p.clock, Dur: dt, Peer: -1})
	}
	p.clock += dt
	return dt
}

// Send transmits data to dst with the given tag, paying the modelled
// transfer time on the sender's clock (blocking-send semantics: no
// computation/communication overlap, matching the paper's assumption).
//
// Messages above the world's rendezvous threshold additionally block the
// sender until the receiver posts the matching receive (MPICH's rendezvous
// protocol), which couples sender progress to receiver scheduling — the
// effect that makes superfluous processes expensive.
//
// It returns the virtual seconds spent sending.
func (p *Proc) Send(dst, tag int, data any, bytes float64) float64 {
	return p.send(dst, tag, data, 0, 0, bytes)
}

// SendScalars transmits a (float64, int) pair inline in the envelope —
// no payload boxing — for scalar reductions such as pivot selection. The
// receiver must use RecvScalars.
func (p *Proc) SendScalars(dst, tag int, x float64, y int, bytes float64) float64 {
	return p.send(dst, tag, nil, x, y, bytes)
}

// send pays the modelled transfer on the per-message envelope path; it runs
// once per simulated MPI message, so it must not allocate
// (TestSendRecvSteadyStateAllocs asserts the steady state).
//
//het:hotpath
//het:allocfree
func (p *Proc) send(dst, tag int, data any, valF float64, valI int, bytes float64) float64 {
	if dst < 0 || dst >= p.world.size {
		panicBadRank("send to", dst, p.world.size)
	}
	if dst == p.rank {
		panic("vmpi: send to self is not supported; use local state")
	}
	if bytes < 0 {
		bytes = 0
	}
	w := p.world
	start := p.clock
	dt := w.transfer(bytes, p.rank, dst)
	if dt < 0 || math.IsNaN(dt) {
		dt = 0
	}
	if w.rendezvous != nil && w.rendezvous(bytes, p.rank, dst) {
		// Rendezvous, collapsed to two envelopes: the request-to-send
		// carries the payload and the precomputed transfer duration
		// (transfer is a pure function, so sender and receiver agree on
		// it); the receiver stamps the completion time
		// max(sender, receiver) + dt — the same float operations the
		// three-step RTS/Ack/Data exchange performed, so virtual clocks
		// are bit-identical — and its clear-to-send releases the sender
		// at that time. The sender still blocks until the receive is
		// posted, the property that makes superfluous processes
		// expensive.
		w.post(dst, Message{Src: p.rank, Tag: tag, Data: data, Bytes: bytes, valF: valF, valI: valI, availAt: p.clock, dt: dt, kind: kindRTS})
		var ack Message
		p.take(&ack, dst, tag, kindAck)
		if ack.availAt > p.clock {
			p.clock = ack.availAt
		}
	} else {
		p.clock += dt
		w.post(dst, Message{Src: p.rank, Tag: tag, Data: data, Bytes: bytes, valF: valF, valI: valI, availAt: p.clock, kind: kindEager})
	}
	if tr := w.tracer; tr != nil {
		tr.Record(TraceEvent{Rank: p.rank, Name: "send", Start: start, Dur: p.clock - start, Peer: dst, Tag: tag, Bytes: bytes})
	}
	return p.clock - start
}

// Recv blocks until a message with the given source and tag arrives,
// advances the virtual clock to the availability time, and returns the
// message along with the virtual seconds that elapsed on this rank
// (waiting time; zero if the data was already available). The returned
// pointer is valid until the next Recv on this Proc.
func (p *Proc) Recv(src, tag int) (*Message, float64) {
	elapsed := p.recv(src, tag)
	return &p.last, elapsed
}

// RecvScalars receives a message sent with SendScalars, returning the
// inline scalar pair and the elapsed virtual seconds.
func (p *Proc) RecvScalars(src, tag int) (x float64, y int, elapsed float64) {
	elapsed = p.recv(src, tag)
	return p.last.valF, p.last.valI, elapsed
}

// recv performs the protocol, copying the delivered envelope into p.last.
//
//het:hotpath
//het:allocfree
func (p *Proc) recv(src, tag int) float64 {
	if src < 0 || src >= p.world.size {
		panicBadRank("recv from", src, p.world.size)
	}
	w := p.world
	start := p.clock
	p.take(&p.last, src, tag, kindEager|kindRTS)
	if p.last.kind == kindRTS {
		// Rendezvous: the RTS carries payload and transfer duration; stamp
		// the completion time and release the sender with it.
		if p.last.availAt > p.clock {
			p.clock = p.last.availAt
		}
		p.clock += p.last.dt
		w.post(src, Message{Src: p.rank, Tag: tag, availAt: p.clock, kind: kindAck})
	} else if p.last.availAt > p.clock {
		p.clock = p.last.availAt
	}
	if tr := w.tracer; tr != nil {
		tr.Record(TraceEvent{Rank: p.rank, Name: "recv", Start: start, Dur: p.clock - start, Peer: src, Tag: tag, Bytes: p.last.Bytes})
	}
	return p.clock - start
}

// panicBadRank reports an out-of-range peer rank. It lives outside the hot
// send/recv bodies so their zero-allocation envelope paths carry no fmt
// calls; the formatting cost lands only on the panicking (cold) path.
func panicBadRank(op string, rank, size int) {
	panic(fmt.Sprintf("vmpi: %s invalid rank %d (size %d)", op, rank, size))
}

// post queues m at rank dst.
//
//het:hotpath
//het:allocfree
func (w *World) post(dst int, m Message) {
	// The queue's backing array reaches its high-water mark within the first
	// few messages of a run and is reused for the rest of it, and by the
	// world's later runs.
	w.boxes[dst] = append(w.boxes[dst], m) //het:allow hotpath allocfree -- unbounded queue; capacity amortizes across the run
	w.moves++
}

// take removes the first message queued at p that matches (src, tag,
// kindMask) into dst, yielding to src until one arrives.
//
//het:hotpath
//het:allocfree
func (p *Proc) take(dst *Message, src, tag, kindMask int) {
	w := p.world
	for {
		box := w.boxes[p.rank]
		for i := range box {
			if m := &box[i]; m.Src == src && m.Tag == tag && m.kind&kindMask != 0 {
				*dst = *m
				last := len(box) - 1
				copy(box[i:], box[i+1:])
				box[last] = Message{} // drop the stale payload reference
				w.boxes[p.rank] = box[:last]
				w.moves++
				return
			}
		}
		if !p.yield(src) {
			panic(errStopped)
		}
	}
}
