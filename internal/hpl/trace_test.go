package hpl

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/simnet"
	"hetmodel/internal/vmpi"
)

// tracedRun runs c traced and returns the tracer's timeline.
func tracedRun(t *testing.T, cl *cluster.Cluster, c cluster.Configuration, p Params) []vmpi.TraceEvent {
	t.Helper()
	p.Tracer = vmpi.NewTracer()
	if _, err := Run(cl, c, p); err != nil {
		t.Fatalf("%s N=%d: %v", c, p.N, err)
	}
	return p.Tracer.Events()
}

// A rank's clock only moves forward, so in program order every event
// starts where the one before it ended. Events must list each rank's
// events in that order: a positive-length span sorted ahead of an event
// with the same start is a reordering.
func TestTracedRunKeepsProgramOrder(t *testing.T) {
	cl := paperCluster(t)
	for _, look := range []bool{false, true} {
		events := tracedRun(t, cl, cfg(1, 4, 8, 1), Params{N: 3200, Lookahead: look})
		for i := 1; i < len(events); i++ {
			prev, ev := events[i-1], events[i]
			if ev.Rank != prev.Rank {
				continue
			}
			end := prev.Start + prev.Dur
			if ev.Start < end-1e-12*math.Max(1, math.Abs(end)) {
				t.Fatalf("lookahead %v, rank %d: event %d (%s at %v) starts before event %d (%s at %v, %v long) ends",
					look, ev.Rank, i, ev.Name, ev.Start, i-1, prev.Name, prev.Start, prev.Dur)
			}
		}
	}
}

// traceDigest is foldEvents over every traced run of TestTraceDigest,
// recorded while traced runs executed on a vmpi-world implementation of
// HPL. That implementation ended each run with an untimed barrier (tags
// from 2·NumPanels+16), whose events were left out.
const traceDigest = 0x35afcac53dda67e8

// foldEvents folds every field of events into h and returns their count.
func foldEvents(h hash.Hash64, events []vmpi.TraceEvent) int {
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ev := range events {
		put(uint64(ev.Rank))
		h.Write([]byte(ev.Name))
		put(math.Float64bits(ev.Start))
		put(math.Float64bits(ev.Dur))
		put(uint64(int64(ev.Peer)))
		put(uint64(ev.Tag))
		put(math.Float64bits(ev.Bytes))
	}
	return len(events)
}

// TestTraceDigest pins the timelines of traced runs: ring and binomial
// broadcasts, lookahead on and off, and both MPICH libraries (1.2.1's
// rendezvous sends block), on shapes with a partial last panel and with
// more processes than PEs.
func TestTraceDigest(t *testing.T) {
	digest := fnv.New64a()
	events := 0
	for _, lib := range []*simnet.CommLibrary{simnet.NewMPICH122(), simnet.NewMPICH121()} {
		cl, err := cluster.NewPaper(lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []cluster.Configuration{cfg(1, 4, 8, 1), cfg(1, 1, 8, 1), cfg(0, 0, 3, 2)} {
			for _, alg := range []vmpi.BcastAlg{vmpi.BcastRing, vmpi.BcastBinomial} {
				for _, look := range []bool{false, true} {
					for _, n := range []int{3200, 1000} {
						p := Params{N: n, Bcast: alg, Lookahead: look, Seed: int64(n)}
						events += foldEvents(digest, tracedRun(t, cl, c, p))
					}
				}
			}
		}
	}
	if got := digest.Sum64(); got != traceDigest {
		t.Fatalf("%d events fold to %#016x, want %#016x", events, got, uint64(traceDigest))
	}
}
