package vmpi

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// constTransfer returns a transfer model with fixed latency and bandwidth.
func constTransfer(latency, bandwidth float64) TransferTime {
	return func(bytes float64, src, dst int) float64 {
		return latency + bytes/bandwidth
	}
}

// mustRun runs body on w and fails the test if the world deadlocks.
func mustRun(t *testing.T, w *World, body func(p *Proc)) []float64 {
	t.Helper()
	clocks, err := w.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	return clocks
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, constTransfer(0, 1)); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewWorld(2, nil); err == nil {
		t.Fatal("nil transfer accepted")
	}
	w, err := NewWorld(3, constTransfer(0, 1))
	if err != nil || w.Size() != 3 {
		t.Fatalf("world: %v %v", w, err)
	}
}

func TestPingPongClocks(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(1, 100))
	clocks := mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Advance(5)
			dt := p.Send(1, 1, "hello", 100) // transfer = 1 + 1 = 2
			if dt != 2 {
				t.Errorf("send dt = %v", dt)
			}
			// Clock after send: 7.
			msg, _ := p.Recv(1, 2)
			if msg.Data.(string) != "world" {
				t.Errorf("payload = %v", msg.Data)
			}
		case 1:
			msg, wait := p.Recv(0, 1)
			// Rank 1 was at t=0; data available at t=7 → waited 7.
			if wait != 7 {
				t.Errorf("wait = %v", wait)
			}
			if msg.Data.(string) != "hello" {
				t.Errorf("payload = %v", msg.Data)
			}
			p.Send(0, 2, "world", 100)
		}
	})
	// Rank1: recv at 7, send 2 → 9. Rank0: max(7, 9) = 9.
	if clocks[1] != 9 || clocks[0] != 9 {
		t.Fatalf("clocks = %v", clocks)
	}
}

func TestRecvAlreadyAvailableNoWait(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(1, 1e9))
	mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 7, nil, 0)
		case 1:
			p.Advance(100) // rank 1 is far ahead; message already there
			_, wait := p.Recv(0, 7)
			if wait != 0 {
				t.Errorf("wait = %v, want 0", wait)
			}
		}
	})
}

func TestAdvanceIgnoresBadInput(t *testing.T) {
	w, _ := NewWorld(1, constTransfer(0, 1))
	mustRun(t, w, func(p *Proc) {
		if p.Advance(-1) != 0 || p.Advance(math.NaN()) != 0 {
			t.Error("bad Advance input not ignored")
		}
		p.Advance(3)
		if p.Clock() != 3 {
			t.Errorf("clock = %v", p.Clock())
		}
	})
}

func TestTagMatching(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(0, 1e9))
	mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, "first", 0)
			p.Send(1, 2, "second", 0)
		case 1:
			// Receive in reverse tag order: matching must pick by tag.
			// (Messages alias per-Proc scratch, so grab the payload
			// before the next Recv.)
			m2, _ := p.Recv(0, 2)
			d2 := m2.Data
			m1, _ := p.Recv(0, 1)
			if d2.(string) != "second" || m1.Data.(string) != "first" {
				t.Errorf("tag matching broken: %v %v", m1.Data, d2)
			}
		}
	})
}

func TestFIFOWithinSameTag(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(0, 1e9))
	mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				p.Send(1, 9, i, 0)
			}
		case 1:
			for i := 0; i < 5; i++ {
				m, _ := p.Recv(0, 9)
				if m.Data.(int) != i {
					t.Errorf("out of order: got %v want %d", m.Data, i)
				}
			}
		}
	})
}

func TestSendSelfPanics(t *testing.T) {
	w, _ := NewWorld(1, constTransfer(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustRun(t, w, func(p *Proc) {
		p.Send(0, 0, nil, 0)
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustRun(t, w, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, 0, nil, 0)
		}
	})
}

func TestNegativeBytesClamped(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(1, 1))
	mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			dt := p.Send(1, 1, nil, -100)
			if dt != 1 { // latency only
				t.Errorf("negative bytes dt = %v", dt)
			}
		case 1:
			p.Recv(0, 1)
		}
	})
}

func TestManyRanksDeterministicClocks(t *testing.T) {
	// A chain of dependent sends must produce identical clocks run-to-run.
	run := func() []float64 {
		w, _ := NewWorld(8, constTransfer(0.5, 2000))
		return mustRun(t, w, func(p *Proc) {
			p.Advance(float64(p.Rank()))
			if p.Rank() > 0 {
				p.Recv(p.Rank()-1, 0)
			}
			if p.Rank() < p.Size()-1 {
				p.Send(p.Rank()+1, 0, nil, 1000)
			}
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic clocks: %v vs %v", a, b)
		}
	}
	// The chain must be monotone along ranks (each waits for predecessor).
	for i := 1; i < len(a)-1; i++ {
		if a[i+1] < a[i] {
			t.Fatalf("chain clock not monotone: %v", a)
		}
	}
}

// TestConcurrentMailboxStress queues many messages from several senders at
// one receiver, which drains them in an order unlike their arrival: the
// receiver's queue grows deep and every receive scans it.
func TestConcurrentMailboxStress(t *testing.T) {
	const senders = 6
	const msgs = 200
	w, _ := NewWorld(senders+1, constTransfer(0, 1e12))
	got := map[[2]int]any{}
	mustRun(t, w, func(p *Proc) {
		if p.Rank() == senders {
			for i := 0; i < senders*msgs; i++ {
				// Round-robin across sources to force queue scans.
				src := i % senders
				m, _ := p.Recv(src, i/senders)
				got[[2]int{src, i / senders}] = m.Data
			}
			return
		}
		for i := 0; i < msgs; i++ {
			p.Send(senders, i, i*1000+p.Rank(), 8)
		}
	})
	if len(got) != senders*msgs {
		t.Fatalf("received %d messages, want %d", len(got), senders*msgs)
	}
	for k, v := range got {
		if v.(int) != k[1]*1000+k[0] {
			t.Fatalf("message %v carries %v", k, v)
		}
	}
}

// Failure injection: a rank's panic reaches Run's caller, and the coroutines
// of the siblings waiting on it are stopped rather than leaked.
func TestWorldPoisonOnRankPanic(t *testing.T) {
	w, _ := NewWorld(3, constTransfer(0, 1e6))
	before := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		w.Run(func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Advance(1)
				panic("rank 0 exploded")
			default:
				p.Recv(0, 42)
			}
		})
	}()
	if recovered != "rank 0 exploded" {
		t.Fatalf("recovered %v, want rank 0's panic", recovered)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d across a panicking run", before, after)
	}
	// The world stays usable.
	if clocks := mustRun(t, w, func(p *Proc) { p.Advance(2) }); clocks[2] != 2 {
		t.Fatalf("clocks after the panic = %v", clocks)
	}
}

// Ranks that receive from each other make Run return ErrDeadlock instead of
// hanging, with every coroutine stopped.
func TestWorldReportsDeadlock(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(0, 1e6))
	before := runtime.NumGoroutine()
	clocks, err := w.Run(func(p *Proc) {
		p.Recv(1-p.Rank(), 5)
	})
	if !errors.Is(err, ErrDeadlock) || clocks != nil {
		t.Fatalf("Run = %v, %v; want ErrDeadlock", clocks, err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d across a deadlocked run", before, after)
	}
}

// Rendezvous semantics: a large send blocks the sender until the receiver
// posts; an eager send does not.
func TestRendezvousBlocksSender(t *testing.T) {
	const limit = 1024
	mk := func() *World {
		w, _ := NewWorld(2, constTransfer(1, 1024)) // 1s latency + 1s/KiB
		w.SetRendezvous(func(bytes float64, src, dst int) bool { return bytes > limit })
		return w
	}
	// Eager: sender's availability time is its own send completion; a
	// receiver that posts late still sees data available early.
	w := mk()
	clocks := mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, nil, 512) // eager
		case 1:
			p.Advance(100)
			_, wait := p.Recv(0, 1)
			if wait != 0 {
				t.Errorf("eager recv waited %v", wait)
			}
		}
	})
	if clocks[0] > 10 {
		t.Fatalf("eager sender clock = %v, should be small", clocks[0])
	}
	// Rendezvous: the sender cannot complete before the receiver posts at
	// t=100, so its clock ends past 100.
	w = mk()
	clocks = mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, nil, 4096) // rendezvous
		case 1:
			p.Advance(100)
			p.Recv(0, 1)
		}
	})
	if clocks[0] < 100 {
		t.Fatalf("rendezvous sender clock = %v, should wait for the receiver", clocks[0])
	}
}

func TestTracerRecordsTimeline(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(1, 100))
	tr := NewTracer()
	w.SetTracer(tr)
	mustRun(t, w, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Advance(5)
			p.Send(1, 1, nil, 100)
		case 1:
			p.Recv(0, 1)
		}
	})
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	// Sorted by rank then start: compute, send (rank 0), recv (rank 1).
	if events[0].Name != "compute" || events[1].Name != "send" || events[2].Name != "recv" {
		t.Fatalf("event order: %v", events)
	}
	if events[1].Start != 5 || events[1].Dur != 2 || events[1].Peer != 1 {
		t.Fatalf("send event: %+v", events[1])
	}
	if events[2].Dur != 7 { // waited from 0 until 7
		t.Fatalf("recv event: %+v", events[2])
	}
	// Chrome trace export is valid JSON with microsecond times.
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	if len(decoded) != 3 || decoded[1]["ph"] != "X" {
		t.Fatalf("chrome trace: %v", decoded)
	}
	if decoded[1]["ts"].(float64) != 5e6 {
		t.Fatalf("ts = %v", decoded[1]["ts"])
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(TraceEvent{}) // must not panic
	w, _ := NewWorld(1, constTransfer(0, 1))
	w.SetTracer(nil)
	mustRun(t, w, func(p *Proc) { p.Advance(1) })
}
