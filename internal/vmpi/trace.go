package vmpi

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// TraceEvent is one timeline entry of a rank: a compute span, a send, or a
// receive (including its wait). Times are virtual seconds.
type TraceEvent struct {
	Rank  int     `json:"rank"`
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
	Peer  int     `json:"peer"`
	Tag   int     `json:"tag"`
	Bytes float64 `json:"bytes"`
}

// Tracer collects per-rank timelines of a run. Install with
// World.SetTracer before Run. A single Tracer may be shared by concurrent
// Runs (e.g. a parallel measurement campaign): recording stays race-free
// behind the mutex, though events of different runs interleave in the
// buffer — Events() sorts by (rank, start), so same-rank events from
// different runs will mix.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) record(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	// Tracing is opt-in: measured runs leave the tracer nil, so this growth
	// never lands on a path the allocation gate times.
	t.events = append(t.events, ev) //het:allow hotpathprop allocfree -- tracing-only buffer; tracer is nil on measured runs
	t.mu.Unlock()
}

// Events returns the collected events sorted by (rank, start).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	out := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// chromeEvent is the Chrome trace-viewer "complete event" form.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the timeline in the Chrome trace-event JSON
// format (load via chrome://tracing or Perfetto); virtual seconds are
// mapped to microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Ph:   "X",
			Ts:   ev.Start * 1e6,
			Dur:  ev.Dur * 1e6,
			Pid:  0,
			Tid:  ev.Rank,
		}
		if ev.Name != "compute" {
			ce.Args = map[string]any{"peer": ev.Peer, "tag": ev.Tag, "bytes": ev.Bytes}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SetTracer installs a tracer recording every Advance/Send/Recv of the next
// Run. Pass nil to disable.
func (w *World) SetTracer(t *Tracer) { w.tracer = t }
