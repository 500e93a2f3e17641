package main

import (
	"fmt"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/parallel"
)

// oracle computes the expected answer of every distinct query with an
// in-process Evaluator.Search on its own evaluators, memoised per (model
// state, query). It runs after the timed phase, never beside it.
type oracle struct {
	base    *core.ModelSet
	grids   [gridCount]*cluster.Grid
	queries []query
	models  map[refitState]*core.ModelSet
	evals   map[evalKey]*core.Evaluator
	memo    map[memoKey]uint64
	scratch []parallel.Candidate
}

type evalKey struct {
	state refitState
	grid  int
	n     int
}

type memoKey struct {
	state refitState
	qid   int32
}

func newOracle(base *core.ModelSet, grids [gridCount]*cluster.Grid, queries []query) *oracle {
	return &oracle{
		base:    base,
		grids:   grids,
		queries: queries,
		models:  map[refitState]*core.ModelSet{0: base},
		evals:   make(map[evalKey]*core.Evaluator),
		memo:    make(map[memoKey]uint64),
	}
}

// model returns the oracle's model for a refit state: the base model with
// the state's samples folded in. Refit is a pure function of the bins'
// contents, so the order the server reached the state in does not matter —
// and if it ever did, the answers would differ and be counted as failures.
func (o *oracle) model(state refitState) (*core.ModelSet, error) {
	if ms, ok := o.models[state]; ok {
		return ms, nil
	}
	var delta core.SampleDelta
	for i, bit := range []refitState{1, 2} {
		if state&bit != 0 {
			s, _ := refitDelta(o.base, 0, i)
			delta.Samples = append(delta.Samples, s.Sample())
		}
	}
	ms, _, err := o.base.Refit(delta)
	if err != nil {
		return nil, fmt.Errorf("oracle model for state %d: %w", state, err)
	}
	o.models[state] = ms
	return ms, nil
}

// expect returns the hash of the ranked list query qid must produce under
// the given model state.
func (o *oracle) expect(state refitState, qid int32) (uint64, error) {
	mk := memoKey{state, qid}
	if h, ok := o.memo[mk]; ok {
		return h, nil
	}
	q := o.queries[qid]
	ek := evalKey{state, q.Grid, q.N}
	ev, ok := o.evals[ek]
	if !ok {
		ms, err := o.model(state)
		if err != nil {
			return 0, err
		}
		ev = ms.Compile(float64(q.N))
		o.evals[ek] = ev
	}
	grid := o.grids[q.Grid]
	res, err := ev.Search(grid, q.searchOptions(grid.Size()))
	if err != nil {
		return 0, fmt.Errorf("oracle search %+v: %w", q, err)
	}
	var h uint64
	h, o.scratch = hashResult(res, o.scratch)
	o.memo[mk] = h
	return h, nil
}
