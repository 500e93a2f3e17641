package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"hetmodel/internal/core"
	"hetmodel/internal/serve"
	"hetmodel/internal/workload"
)

// query is one distinct planning request. Requests reach the program only
// in this generated form; the answer oracle keys on it.
type query struct {
	N     int
	TopK  int  // 0 asks for the single best
	Cons  bool // classes 0-3, at most 24 processes in total
	Shard bool // middle third of the grid, the fleet's scatter unit
	Grid  int
}

var constrainedClasses = []int{0, 1, 2, 3}

const constrainedMaxProcs = 24

// searchOptions is the in-process form of q (Workers = 1: the counts the
// kernel reports are exact and repeatable only sequentially).
func (q query) searchOptions(gridSize int64) core.SearchOptions {
	o := core.SearchOptions{Workers: 1, TopK: q.TopK}
	if q.Cons {
		o.Constraints = &core.Constraints{Classes: constrainedClasses, MaxTotalProcs: constrainedMaxProcs}
	}
	if q.Shard {
		o.Range = &core.IndexRange{Lo: gridSize / 3, Hi: 2 * gridSize / 3}
	}
	return o
}

// wire is the HTTP form of q.
func (q query) wire() serve.QueryRequest {
	r := serve.QueryRequest{N: q.N, TopK: q.TopK}
	if q.Cons {
		r.Classes, r.MaxTotalProcs = constrainedClasses, constrainedMaxProcs
	}
	return r
}

// Cohorts of the query mixes; the cohort name of a generated request
// selects its kind.
func cohort(name string, weight float64, sizes []int, zipfS float64) workload.CohortSpec {
	c := workload.CohortSpec{Name: name, Weight: weight, Sizes: sizes, SizeDist: workload.SizeUniform}
	if zipfS > 0 {
		c.SizeDist, c.ZipfS = workload.SizeZipf, zipfS
	}
	switch name {
	case "top8", "shard":
		c.TopK, c.TopKRatio = 8, 1
	case "top64":
		c.TopK, c.TopKRatio = 64, 1
	case "constrained":
		c.Classes, c.MaxTotalProcs = constrainedClasses, constrainedMaxProcs
	}
	return c
}

// sizes returns count problem sizes start, start+step, ...
func sizes(start, step, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = start + i*step
	}
	return out
}

var (
	// hotSizes fit the 64-entry evaluator cache; Zipf(1.2) makes the first
	// the hot one.
	hotSizes = sizes(400, 192, 16)
	// churnSizes are 12 times the evaluator cache: at least 90 % misses and
	// an eviction per miss.
	churnSizes = sizes(400, 4, 768)
	// warmSizes are the sizes plan_warm keeps a compiled evaluator for, per
	// grid.
	warmSizes = sizes(400, 384, 8)
)

// sequenceLen is the mean length of a generated request sequence; a run that
// needs more wraps around.
const sequenceLen = 1 << 16

// genSpec describes one workload's request stream.
type genSpec struct {
	sizes []int
	zipfS float64 // 0 = uniform
	mix   map[string]float64
	grids int // requests alternate over this many grids
}

var genSpecs = map[string]genSpec{
	"plan_cold":     {sizes: churnSizes, grids: 2, mix: map[string]float64{"best": 60, "top8": 25, "constrained": 15}},
	"plan_warm":     {sizes: warmSizes, grids: 2, mix: map[string]float64{"top64": 40, "top8": 30, "shard": 15, "constrained": 15}},
	"serve_hot":     {sizes: hotSizes, zipfS: 1.2, grids: 1, mix: map[string]float64{"best": 60, "top8": 25, "constrained": 15}},
	"serve_churn":   {sizes: churnSizes, grids: 1, mix: map[string]float64{"best": 60, "top8": 25, "constrained": 15}},
	"fleet_scatter": {sizes: hotSizes, zipfS: 1.2, grids: 1, mix: map[string]float64{"best": 50, "top8": 50}},
}

// cohortOrder fixes the cohort order of a spec: it feeds the seeded mixer,
// so it must not depend on map iteration.
var cohortOrder = []string{"best", "top8", "top64", "shard", "constrained"}

// requests is a generated request stream: the distinct queries and the
// order they are sent in.
type requests struct {
	queries []query
	seq     []int32 // indices into queries, in trace order
	hash    uint64  // FNV-1a over the sequence
}

// generate expands a workload's spec under seed through workload.Generate.
// Arrival offsets are ignored (the load is closed loop); only the order and
// the payloads are used.
func generate(name string, seed int64) (*requests, error) {
	gs, ok := genSpecs[name]
	if !ok {
		return nil, fmt.Errorf("workload %q has no request stream", name)
	}
	spec := workload.Spec{
		Name:       name,
		Seed:       seed,
		DurationNs: 1e9,
		Arrival:    workload.ArrivalSpec{Process: workload.ProcessPoisson, RateQPS: sequenceLen},
	}
	for _, c := range cohortOrder {
		if w := gs.mix[c]; w > 0 {
			spec.Cohorts = append(spec.Cohorts, cohort(c, w, gs.sizes, gs.zipfS))
		}
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if len(tr.Requests) == 0 {
		return nil, fmt.Errorf("workload %q: empty request stream", name)
	}
	rq := &requests{seq: make([]int32, len(tr.Requests))}
	ids := make(map[query]int32)
	h := fnv.New64a()
	var buf [8]byte
	for i, r := range tr.Requests {
		q := query{N: r.N, TopK: r.TopK, Cons: len(r.Classes) > 0, Shard: r.Cohort == "shard", Grid: i % gs.grids}
		id, seen := ids[q]
		if !seen {
			id = int32(len(rq.queries))
			ids[q] = id
			rq.queries = append(rq.queries, q)
		}
		rq.seq[i] = id
		flags := uint64(q.Grid) << 2
		if q.Cons {
			flags |= 1
		}
		if q.Shard {
			flags |= 2
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(q.N)<<32|uint64(q.TopK)<<8|flags)
		h.Write(buf[:])
	}
	rq.hash = h.Sum64()
	return rq, nil
}

// warmUp lists the queries of the warm-up pass: every distinct query once,
// for as many sizes as the evaluator cache holds. Compiles and first-search
// tables for the sizes that stay cached happen there, not in the measured
// time.
func (rq *requests) warmUp() []int32 {
	const cacheSize = 64 // memberOptions' CacheSize
	var qids []int32
	seen := make(map[int]bool)
	for qid, q := range rq.queries {
		if !seen[q.N] && len(seen) == cacheSize {
			continue
		}
		seen[q.N] = true
		qids = append(qids, int32(qid))
	}
	return qids
}
