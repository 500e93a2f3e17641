package main

import (
	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
)

// The served model and spaces are the synthetic six-class ones the repo
// already tracks in internal/bench, re-declared here so the benchmark owns
// its inputs: cmd/hetserve and cmd/hetrouter hard-code the 62-candidate
// paper space and cannot host these grids.

const modelClasses = 6

// Grid identifiers, in the order requests alternate over them.
const (
	grid1M = iota // PEs {0,1,2,4} x procs {1,2,3} per class: 10^6 points
	grid1B        // PEs 0..8 x procs 1..4 per class: 33^6 points
	gridCount
)

func gridSpace(id int) cluster.Space {
	pes, procs := []int{0, 1, 2, 4}, []int{1, 2, 3}
	if id == grid1B {
		pes, procs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 2, 3, 4}
	}
	s := cluster.Space{PEChoices: make([][]int, modelClasses), ProcChoices: make([][]int, modelClasses)}
	for ci := range s.PEChoices {
		s.PEChoices[ci] = pes
		s.ProcChoices[ci] = procs
	}
	return s
}

// trainingSamples is the closed-form training set: every class measured at
// M = 1..5 on 1, 2, 4 and 8 PEs over five sizes; class c runs at speed
// 1/(1 + c/4). Process choices stop at 3 on the 1M grid (4 on the 1B grid),
// so the M = 4 and M = 5 bins are in the model but no 1M-grid candidate
// reads them: refitting them must leave a planner's evaluator cache warm.
func trainingSamples() []core.Sample {
	var samples []core.Sample
	for class := 0; class < modelClasses; class++ {
		speed := 1 + float64(class)/4
		for m := 1; m <= 5; m++ {
			for _, pe := range []int{1, 2, 4, 8} {
				p := pe * m
				for _, n := range []int{400, 800, 1600, 2400, 3200} {
					nf := float64(n)
					ta := 6e-10*nf*nf*nf/float64(p)*speed + 0.2
					tc := 1e-9 * nf * nf
					if pe > 1 {
						tc = 2e-9*nf*nf*float64(p) + 1e-8*nf*nf/float64(p) + 0.05
					}
					use := make([]cluster.ClassUse, modelClasses)
					use[class] = cluster.ClassUse{PEs: pe, Procs: m}
					samples = append(samples, core.Sample{
						Config: cluster.Configuration{Use: use},
						N:      n, P: p, Class: class, M: m,
						Ta: ta, Tc: tc, Wall: ta + tc,
					})
				}
			}
		}
	}
	return samples
}

// buildModel fits the served model with its sample bins attached, so it can
// be refitted incrementally.
func buildModel() (*core.ModelSet, error) {
	samples := trainingSamples()
	ms, err := core.Build(modelClasses, samples)
	if err != nil {
		return nil, err
	}
	ms.Bins = core.NewBinStore(samples, nil)
	return ms, nil
}

// refitState is the model state the churn writer toggles: bit 0 scales one
// class 0, M = 5 sample (unreachable from the 1M grid: cache re-keyed), bit
// 1 one class 0, M = 1 sample (reachable: cache invalidated).
type refitState uint8

// refitDelta returns the one-sample delta of write number i (0-based) and
// the state it leaves the model in. Even writes flip the unreachable bit,
// odd writes the reachable one; each sample toggles between its closed-form
// Ta and Ta x 1.01, so the model cycles through four states.
func refitDelta(base *core.ModelSet, prev refitState, i int) (core.StoredSample, refitState) {
	bit, m := refitState(1), 5
	if i%2 == 1 {
		bit, m = 2, 1
	}
	next := prev ^ bit
	s := base.Bins.Samples(core.PTKey{Class: 0, M: m})[0]
	if next&bit != 0 {
		s.Ta *= 1.01
	}
	return core.StoredSample{Class: s.Class, P: s.P, M: s.M, N: s.N, Ta: s.Ta, Tc: s.Tc}, next
}
