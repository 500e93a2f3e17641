package vmpi

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSendRecvSteadyStateAllocs asserts the messaging path: after a
// warm-up, a ping-pong exchange — eager and rendezvous — performs no heap
// allocation. The test reads the global malloc counter from inside rank 0,
// so the measured span covers both ranks' coroutines and every switch
// between them.
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	const (
		warmup   = 200
		measured = 1000
		// A strictly positive budget absorbs runtime internals that are
		// not under this package's control; the regression being guarded
		// against is one-or-more allocations per message, i.e.
		// >= 2*measured mallocs.
		budget = 50
	)
	transfer := func(bytes float64, src, dst int) float64 { return 1e-6 }
	w, err := NewWorld(2, transfer)
	if err != nil {
		t.Fatal(err)
	}
	// Odd roundtrips are eager, even ones rendezvous, so both protocol
	// paths are covered by the same measurement.
	w.SetRendezvous(func(bytes float64, src, dst int) bool { return bytes > 10 })

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var delta uint64
	mustRun(t, w, func(p *Proc) {
		bytesFor := func(i int) float64 {
			if i%2 == 0 {
				return 100 // rendezvous
			}
			return 4 // eager
		}
		if p.Rank() == 0 {
			roundtrip := func(i int) {
				p.Send(1, 7, nil, bytesFor(i))
				p.Recv(1, 7)
			}
			for i := 0; i < warmup; i++ {
				roundtrip(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				roundtrip(i)
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
		} else {
			for i := 0; i < warmup+measured; i++ {
				p.Recv(0, 7)
				p.Send(0, 7, nil, bytesFor(i))
			}
		}
	})
	if delta > budget {
		t.Fatalf("steady-state send/recv performed %d mallocs over %d roundtrips, want <= %d",
			delta, measured, budget)
	}
}

// TestScalarSendRecvSteadyStateAllocs covers the inline-scalar path used by
// the pivot reductions.
func TestScalarSendRecvSteadyStateAllocs(t *testing.T) {
	const (
		warmup   = 200
		measured = 1000
		budget   = 50
	)
	transfer := func(bytes float64, src, dst int) float64 { return 1e-6 }
	w, err := NewWorld(2, transfer)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var delta uint64
	mustRun(t, w, func(p *Proc) {
		if p.Rank() == 0 {
			roundtrip := func(i int) {
				p.SendScalars(1, 3, float64(i), i, 16)
				x, y, _ := p.RecvScalars(1, 3)
				if x != float64(i+1) || y != i+1 {
					panic("scalar roundtrip mismatch")
				}
			}
			for i := 0; i < warmup; i++ {
				roundtrip(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				roundtrip(i)
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
		} else {
			for i := 0; i < warmup+measured; i++ {
				x, y, _ := p.RecvScalars(0, 3)
				p.SendScalars(0, 3, x+1, y+1, 16)
			}
		}
	})
	if delta > budget {
		t.Fatalf("steady-state scalar send/recv performed %d mallocs over %d roundtrips, want <= %d",
			delta, measured, budget)
	}
}
