package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Nothing inside the program is instrumented, so the tracer records spans
// only around the benchmark's own calls into each layer. A request that
// crosses a process boundary is traced by executing it once per depth on the
// same warm state — socket round trip, then the HTTP handler in process,
// then the query call, then compile and search — each depth's span parented
// to the shallower one. A layer's self time is its span minus its child's.
//
// Differences of adjacent spans sum to the root whatever the replays
// measured, so they cannot show whether the replays resemble the request.
// Coverage therefore counts only the spans timed directly under the root:
// for a served request the round trip of a request the server does no work
// for (the socket alone) and the handler replayed in process. When the twins
// behave as the server did, the two add up to the real round trip.

// span is one timed call, as written to the span file.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`
}

// layer indexes the self-time budget of one traced request.
type layer int

const (
	layerSocket  layer = iota // round trip of a request the server does no work for: kernel TCP, net/http server, client
	layerCodec                // handler minus query call: routing, JSON decode and encode
	layerQuery                // query call minus what it calls: admission, cache, batching; for the fleet the fan-out
	layerCompile              // ModelSet.Compile
	layerTables               // first search on a fresh evaluator minus the same search repeated
	layerSearch               // the odometer walk
	layerMembers              // fleet: the slowest member's shard round trip
	layerMerge                // parallel.MergeTopK
	layerBuild                // paper pipeline: the three BuildModel calls
	layerEval                 // paper pipeline: the three EvaluationTable calls
	layerOther                // the root minus the spans timed directly under it: not a layer, not covered
	layerCount
)

var layerMetric = [layerCount]string{
	"trace.socket_us", "trace.codec_us", "trace.query_us", "trace.compile_us", "trace.tables_us",
	"trace.search_us", "trace.members_us", "trace.merge_us", "trace.build_us", "trace.eval_us", "trace.other_us",
}

// maxSpans bounds the span file; the budget keeps counting past it.
const maxSpans = 200000

// tracer collects spans and the per-layer budget of the sampled requests.
type tracer struct {
	every int // trace one request in every
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int64
	reqs    int
	root    time.Duration
	direct  time.Duration // spans timed directly under the roots
	self    [layerCount]time.Duration
	clamped int // self times that came out negative
	parts   int
}

func newTracer(every int) *tracer {
	return &tracer{every: every, epoch: time.Now()}
}

// add records a span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, req int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
			ID: t.nextID, Parent: parent, Req: req,
		})
	}
	return t.nextID
}

// budget adds one traced request: its root duration, the total of the spans
// timed directly under the root, and each layer's self time. A self time
// comes out negative when a deeper replay ran longer than the shallower one;
// those are counted, and summed as they are, so that the noise of single
// replays cancels in the mean instead of inflating it.
func (t *tracer) budget(root, direct time.Duration, self [layerCount]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	t.root += root
	t.direct += direct
	for l, d := range self {
		if d == 0 {
			continue
		}
		t.parts++
		if d < 0 {
			t.clamped++
		}
		t.self[l] += d
	}
}

// metrics returns the mean budget per traced request. Means, not medians:
// the self times of one request sum to its root, and only means keep that
// property across requests. A layer whose mean is still negative is clamped
// to 0. coverage is the directly timed spans' share of the roots: under 100
// where they leave part of the root unexplained, over 100 where they
// overshoot it.
func (t *tracer) metrics() []metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(t.reqs)
	if n == 0 {
		n = 1
	}
	out := []metric{{Name: "trace.root_us", Value: micros(t.root) / n, Unit: "us", N: t.reqs}}
	for l := layer(0); l < layerCount; l++ {
		self := t.self[l]
		if self < 0 {
			self = 0
		}
		out = append(out, metric{Name: layerMetric[l], Value: micros(self) / n, Unit: "us", N: t.reqs})
	}
	coverage, clamped := 0.0, 0.0
	if t.root > 0 {
		coverage = 100 * float64(t.direct) / float64(t.root)
	}
	if t.parts > 0 {
		clamped = 100 * float64(t.clamped) / float64(t.parts)
	}
	return append(out,
		metric{Name: "trace.coverage_pct", Value: coverage, Unit: "%", N: t.reqs},
		metric{Name: "trace.clamped_pct", Value: clamped, Unit: "%", N: t.parts},
	)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
