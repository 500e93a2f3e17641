package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
)

// TraceSchema is the versioned identifier every trace carries. Bump the
// suffix when the format changes shape; ParseTrace rejects anything else.
const TraceSchema = "hetmodel-trace/1"

// TraceRequest is one scheduled planner request: an arrival offset plus the
// query payload a replay driver sends to /v1/query. Field names match the
// serve.QueryRequest JSON they are forwarded into.
type TraceRequest struct {
	// AtNs is the arrival offset from the start of the trace (>= 0,
	// non-decreasing across the trace).
	AtNs int64 `json:"atNs"`
	// Cohort names the CohortSpec that generated the request; summaries
	// aggregate by it.
	Cohort string `json:"cohort"`
	// N is the problem size (> 0).
	N int `json:"n"`
	// TopK asks for the ranked K best when > 0 (0 = single best).
	TopK int `json:"topk,omitempty"`
	// Constraint profile (see serve.Constraints).
	Classes       []int   `json:"classes,omitempty"`
	MaxTotalProcs int     `json:"maxTotalProcs,omitempty"`
	MaxBytesPerPE float64 `json:"maxBytesPerPE,omitempty"`
	// TimeoutMs bounds the server-side admission wait.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// Trace is a replayable workload: a header identifying how it was made and
// the scheduled requests in arrival order.
type Trace struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	// DurationNs is the trace horizon; offered load is Requests/Duration.
	DurationNs int64 `json:"durationNs"`
	// Spec records the generator input when the trace was generated (nil
	// for hand-written traces).
	Spec     *Spec          `json:"spec,omitempty"`
	Requests []TraceRequest `json:"requests"`
}

// Generate expands a Spec into a Trace. The result is a pure function of the
// spec: the same (seed, arrival, mix, duration) always yields byte-identical
// Marshal output. Arrival times and mix draws come from two independent
// seeded streams so reshaping the mix never moves the arrivals.
func Generate(spec Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// splitmix64-style derivation keeps the two streams decorrelated even
	// for adjacent seeds.
	arrivalRng := rand.New(rand.NewSource(spec.Seed))
	mixRng := rand.New(rand.NewSource(spec.Seed ^ 0x61c8864680b583eb))

	ats := arrivals(arrivalRng, spec.Arrival, spec.DurationNs)
	mix := newMixer(spec.Cohorts)
	reqs := make([]TraceRequest, len(ats))
	for i, at := range ats {
		reqs[i] = mix.draw(mixRng, at)
	}
	specCopy := spec
	return &Trace{
		Schema:     TraceSchema,
		Name:       spec.Name,
		Seed:       spec.Seed,
		DurationNs: spec.DurationNs,
		Spec:       &specCopy,
		Requests:   reqs,
	}, nil
}

// mixer precomputes the cumulative cohort weights and per-cohort size CDFs
// so each draw is a few uniform variates.
type mixer struct {
	cohorts []CohortSpec
	cumW    []float64 // cumulative cohort weights, normalized to 1
	sizeCDF [][]float64
}

func newMixer(cohorts []CohortSpec) *mixer {
	m := &mixer{cohorts: cohorts}
	var total float64
	for i := range cohorts {
		total += cohorts[i].Weight
	}
	m.cumW = make([]float64, len(cohorts))
	acc := 0.0
	for i := range cohorts {
		acc += cohorts[i].Weight / total
		m.cumW[i] = acc
	}
	m.cumW[len(m.cumW)-1] = 1
	m.sizeCDF = make([][]float64, len(cohorts))
	for i := range cohorts {
		c := &cohorts[i]
		cdf := make([]float64, len(c.Sizes))
		var sum float64
		for j := range c.Sizes {
			w := 1.0
			if c.SizeDist == SizeZipf {
				// Rank-based Zipf: Sizes[0] is the hot size.
				w = 1 / math.Pow(float64(j+1), c.ZipfS)
			}
			sum += w
			cdf[j] = sum
		}
		for j := range cdf {
			cdf[j] /= sum
		}
		cdf[len(cdf)-1] = 1
		m.sizeCDF[i] = cdf
	}
	return m
}

func (m *mixer) draw(rng *rand.Rand, atNs int64) TraceRequest {
	ci := searchCDF(m.cumW, rng.Float64())
	c := &m.cohorts[ci]
	si := searchCDF(m.sizeCDF[ci], rng.Float64())
	// The top-K draw is taken unconditionally so request payloads of one
	// cohort never shift when another cohort's ratio changes.
	topDraw := rng.Float64()
	topk := 0
	if c.TopKRatio > 0 && topDraw < c.TopKRatio {
		topk = c.TopK
	}
	return TraceRequest{
		AtNs:          atNs,
		Cohort:        c.Name,
		N:             c.Sizes[si],
		TopK:          topk,
		Classes:       c.Classes,
		MaxTotalProcs: c.MaxTotalProcs,
		MaxBytesPerPE: c.MaxBytesPerPE,
		TimeoutMs:     c.TimeoutMs,
	}
}

// searchCDF returns the first index whose cumulative value exceeds u.
func searchCDF(cdf []float64, u float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

// Marshal renders the trace in its canonical byte form: two-space indented
// JSON with a trailing newline. Parse followed by Marshal reproduces the
// input byte for byte (tested), which is what lets committed traces and
// golden summaries gate CI with a plain diff.
func (t *Trace) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("workload: marshal trace: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseTrace reads and validates a trace: schema version, unknown fields,
// non-decreasing arrival offsets, positive sizes, named cohorts. A trace
// that parses is safe to replay.
func ParseTrace(data []byte) (*Trace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: parse trace: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: parse trace: trailing data after the JSON document")
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("workload: trace schema %q, this build reads %q", t.Schema, TraceSchema)
	}
	if t.Name == "" {
		return nil, fmt.Errorf("workload: trace has no name")
	}
	if t.DurationNs <= 0 {
		return nil, fmt.Errorf("workload: trace %q: duration %d ns, want > 0", t.Name, t.DurationNs)
	}
	if t.Spec != nil {
		if err := t.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("workload: trace %q: embedded spec: %w", t.Name, err)
		}
	}
	prev := int64(0)
	for i := range t.Requests {
		r := &t.Requests[i]
		if r.AtNs < prev {
			return nil, fmt.Errorf("workload: trace %q: request %d at %d ns arrives before request %d at %d ns", t.Name, i, r.AtNs, i-1, prev)
		}
		prev = r.AtNs
		if r.Cohort == "" {
			return nil, fmt.Errorf("workload: trace %q: request %d has no cohort", t.Name, i)
		}
		if r.N <= 0 {
			return nil, fmt.Errorf("workload: trace %q: request %d: size %d, want > 0", t.Name, i, r.N)
		}
		if r.TopK < 0 {
			return nil, fmt.Errorf("workload: trace %q: request %d: topk %d, want >= 0", t.Name, i, r.TopK)
		}
	}
	return &t, nil
}

// ReadTraceFile loads and validates a trace file.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return ParseTrace(data)
}

// ReadSpecFile loads and validates a generator spec file.
func ReadSpecFile(path string) (Spec, error) {
	var spec Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("workload: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("workload: parse spec %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}
