package core

import (
	"fmt"
	"math"
	"sort"
)

// This file implements incremental refit: a ModelSet that carries its own
// training samples, partitioned into the paper's (class, M) bins, can absorb
// a batch of new measurements by refitting only the touched bins instead of
// rebuilding every model. The contract — property-tested — is that the
// incremental result is bit-identical to a from-scratch Build over the
// store's concatenated samples followed by the recorded composition and
// adjustment steps (RebuildFromBins). That invariant is what lets the
// serving layer re-key cached evaluators across a refit instead of
// recompiling them: an unchanged bin provably yields unchanged tables.
//
// Bit-identity holds because every fitting step reads a deterministic
// subsequence of the store: FitNT and FitPT consume only their own bin's
// samples in arrival order, composition and adjustment are deterministic
// functions of the fitted models and the calibration set. Refitting a touched
// bin from its full (old + delta) sample slice therefore reproduces exactly
// what the full rebuild computes for that bin, while untouched bins keep
// their existing model pointers untouched.

// StoredSample is the persisted and wire form of one training sample: the
// fields the fitting pipeline actually reads (Config and Wall are
// provenance, never regressors). It is the element type of the model file's
// "bins"/"calibration" sections and of the serving layer's /v1/refit batch.
type StoredSample struct {
	Class int     `json:"class"`
	P     int     `json:"p"`
	M     int     `json:"m"`
	N     int     `json:"n"`
	Ta    float64 `json:"ta"`
	Tc    float64 `json:"tc"`
}

// Sample widens the stored form back into a training sample.
func (s StoredSample) Sample() Sample {
	return Sample{N: s.N, P: s.P, Class: s.Class, M: s.M, Ta: s.Ta, Tc: s.Tc}
}

// stripSample reduces a sample to the fields fitting reads, so in-memory bin
// stores and ones reloaded from a model file behave identically.
func stripSample(s Sample) Sample {
	return Sample{N: s.N, P: s.P, Class: s.Class, M: s.M, Ta: s.Ta, Tc: s.Tc}
}

// SampleDelta is one refit batch: new (or corrected) training samples plus
// optional §4.1 calibration samples. Within a (class, M) bin a delta sample
// replaces the stored sample with the same (P, N) — the latest measurement
// of a configuration wins — and appends otherwise.
type SampleDelta struct {
	Samples     []Sample
	Calibration []Sample
}

// BinStore holds a ModelSet's training samples partitioned into the paper's
// (class, M) bins, each in arrival order, plus the adjustment calibration
// set. It is the durable input of incremental refit: persisting it alongside
// the fitted models makes any model file rebuildable and refittable.
type BinStore struct {
	bins  map[PTKey][]Sample
	calib []Sample
}

// NewBinStore builds a store from initial training and calibration samples,
// applying the same latest-wins placement Refit uses for deltas.
func NewBinStore(samples, calibration []Sample) *BinStore {
	b := &BinStore{bins: make(map[PTKey][]Sample)}
	for _, s := range samples {
		s = stripSample(s)
		key := PTKey{Class: s.Class, M: s.M}
		b.bins[key], _ = placeSample(b.bins[key], s)
	}
	for _, s := range calibration {
		b.calib, _ = placeCalib(b.calib, stripSample(s))
	}
	return b
}

// placeSample inserts s into a bin slice with latest-wins semantics: a stored
// sample with the same (P, N) is overwritten in place (keeping its arrival
// position, so refit and rebuild see the same order), otherwise s appends.
func placeSample(bin []Sample, s Sample) (out []Sample, replaced bool) {
	for i := range bin {
		if bin[i].P == s.P && bin[i].N == s.N {
			bin[i] = s
			return bin, true
		}
	}
	return append(bin, s), false
}

// placeCalib is placeSample for the calibration set, which spans bins and so
// matches on (Class, M, P, N).
func placeCalib(calib []Sample, s Sample) (out []Sample, replaced bool) {
	for i := range calib {
		if calib[i].Class == s.Class && calib[i].M == s.M && calib[i].P == s.P && calib[i].N == s.N {
			calib[i] = s
			return calib, true
		}
	}
	return append(calib, s), false
}

// Len returns the number of stored training samples (calibration excluded).
func (b *BinStore) Len() int {
	n := 0
	for _, bin := range b.bins {
		n += len(bin)
	}
	return n
}

// Keys returns the populated (class, M) bins in deterministic order.
func (b *BinStore) Keys() []PTKey {
	out := make([]PTKey, 0, len(b.bins))
	for k := range b.bins {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return ptKeyLess(out[i], out[j]) })
	return out
}

// Samples returns one bin's samples in arrival order. The slice is shared;
// callers must not mutate it.
func (b *BinStore) Samples(key PTKey) []Sample { return b.bins[key] }

// Calibration returns the calibration set in arrival order. The slice is
// shared; callers must not mutate it.
func (b *BinStore) Calibration() []Sample { return b.calib }

// Flatten returns the store's canonical concatenated sample set: bins in
// sorted (class, M) order, arrival order within each bin. Build over this
// slice is the reference every incremental refit must reproduce — each
// fitting step reads only per-bin subsequences, which Flatten preserves.
func (b *BinStore) Flatten() []Sample {
	out := make([]Sample, 0, b.Len())
	for _, k := range b.Keys() {
		out = append(out, b.bins[k]...)
	}
	return out
}

// withDelta returns a new store with the delta applied, sharing the slices
// of untouched bins with the receiver (copy-on-write: the receiver is never
// mutated, so a failed refit leaves the published model's store intact). The
// report's Appended/Replaced/Touched fields are filled; Changed is the
// caller's job.
func (b *BinStore) withDelta(delta SampleDelta, classes int) (*BinStore, *RefitReport, error) {
	next := &BinStore{bins: make(map[PTKey][]Sample, len(b.bins)), calib: b.calib}
	for k, bin := range b.bins {
		next.bins[k] = bin
	}
	rep := &RefitReport{}
	touched := make(map[PTKey]bool)
	for _, s := range delta.Samples {
		s = stripSample(s)
		if err := checkSample(s, classes); err != nil {
			return nil, nil, err
		}
		key := PTKey{Class: s.Class, M: s.M}
		if !touched[key] {
			touched[key] = true
			next.bins[key] = append([]Sample(nil), next.bins[key]...)
		}
		var replaced bool
		next.bins[key], replaced = placeSample(next.bins[key], s)
		if replaced {
			rep.Replaced++
		} else {
			rep.Appended++
		}
	}
	if len(delta.Calibration) > 0 {
		next.calib = append([]Sample(nil), b.calib...)
		for _, s := range delta.Calibration {
			s = stripSample(s)
			if err := checkSample(s, classes); err != nil {
				return nil, nil, err
			}
			var replaced bool
			next.calib, replaced = placeCalib(next.calib, s)
			if replaced {
				rep.CalibReplaced++
			} else {
				rep.CalibAppended++
			}
		}
	}
	rep.Touched = make([]PTKey, 0, len(touched))
	for k := range touched {
		rep.Touched = append(rep.Touched, k)
	}
	sortPTKeys(rep.Touched)
	return next, rep, nil
}

// MergeDelta returns a new store with the delta folded in, without any
// refitting: pure bin bookkeeping (append or latest-wins replace), receiver
// untouched. It exists for reference paths that want the merged sample set
// but fit from scratch — modelfit's -rebuild mode uses it so the refit
// parity gate's reference side shares no fitting shortcut with Refit.
func (b *BinStore) MergeDelta(delta SampleDelta, classes int) (*BinStore, *RefitReport, error) {
	return b.withDelta(delta, classes)
}

// checkSample rejects delta samples the fitting pipeline cannot digest.
func checkSample(s Sample, classes int) error {
	if s.Class < 0 || s.Class >= classes {
		return fmt.Errorf("%w: sample class %d outside %d classes", ErrBadSamples, s.Class, classes)
	}
	if s.M < 1 || s.N < 1 || s.P < s.M {
		return fmt.Errorf("%w: sample (class %d, P %d, M %d, N %d)", ErrBadSamples, s.Class, s.P, s.M, s.N)
	}
	if !isFinite(s.Ta) || !isFinite(s.Tc) {
		return fmt.Errorf("%w: non-finite times in sample (class %d, P %d, M %d, N %d)", ErrBadSamples, s.Class, s.P, s.M, s.N)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RefitReport is the changed-bin report of one Refit: what the delta did to
// the store and which evaluator-visible tables differ as a result. The
// serving layer keys its cache invalidation off Changed and AdjustChanged —
// everything else is observability.
type RefitReport struct {
	// Appended and Replaced count delta training samples that extended a
	// bin vs overwrote a stored (P, N) measurement; CalibAppended and
	// CalibReplaced are the same for the calibration set.
	Appended      int `json:"appended"`
	Replaced      int `json:"replaced"`
	CalibAppended int `json:"calibAppended,omitempty"`
	CalibReplaced int `json:"calibReplaced,omitempty"`
	// Touched lists the (class, M) bins that received delta samples.
	Touched []PTKey `json:"touched"`
	// Changed lists the (class, M) bins whose evaluator-visible tables —
	// the single-PE N-T model (P = M) or the P-T model — differ from the
	// pre-refit model, bitwise. Composition can change bins far from the
	// touched ones (a composed class mirrors its source), which is why this
	// is computed by comparison, not dependency tracking.
	Changed []PTKey `json:"changed"`
	// AdjustChanged lists the classes whose §4.1 adjustment transform
	// differs after the calibration refit.
	AdjustChanged []int `json:"adjustChanged,omitempty"`
}

// Refit applies a sample delta incrementally: it extends the bin store
// (copy-on-write), refits the N-T and P-T models of the touched bins only,
// replays the recorded composition recipes, refits the §4.1 adjustment from
// the union calibration set, and reports which (class, M) tables changed.
// The receiver is never mutated — Refit returns a new ModelSet sharing every
// untouched model pointer, which is what makes it cheap: cost scales with
// the touched bins, not the model.
//
// The result is bit-identical to RebuildFromBins on the returned set's bins
// (property-tested), provided the receiver itself satisfies that invariant —
// true for any model built by BuildModels/BuildModel or loaded from a file
// they wrote, and preserved by Refit itself.
func (ms *ModelSet) Refit(delta SampleDelta) (*ModelSet, *RefitReport, error) {
	if ms.Bins == nil {
		return nil, nil, fmt.Errorf("%w: model set carries no sample bins (refit needs a model written with them)", ErrNoModel)
	}
	if len(delta.Samples) == 0 && len(delta.Calibration) == 0 {
		return nil, nil, fmt.Errorf("%w: empty refit delta", ErrBadSamples)
	}
	bins, report, err := ms.Bins.withDelta(delta, ms.Classes)
	if err != nil {
		return nil, nil, err
	}
	next := &ModelSet{
		Classes:      ms.Classes,
		NT:           make(map[Key]*NTModel, len(ms.NT)),
		PT:           make(map[PTKey]*PTModel, len(ms.PT)),
		AdjustMinM:   ms.AdjustMinM,
		Cluster:      ms.Cluster,
		Bins:         bins,
		Compositions: append([]Composition(nil), ms.Compositions...),
	}
	for k, m := range ms.NT {
		next.NT[k] = m
	}
	for k, m := range ms.PT {
		next.PT[k] = m
	}
	for _, bin := range report.Touched {
		if err := next.refitBin(bin); err != nil {
			return nil, nil, err
		}
	}
	if err := next.replayCompositions(); err != nil {
		return nil, nil, err
	}
	if err := next.FitAdjustment(bins.calib); err != nil {
		return nil, nil, err
	}
	report.Changed, report.AdjustChanged = diffModels(ms, next)
	return next, report, nil
}

// refitBin refits one (class, M) bin from its full sample slice, mirroring
// exactly what a from-scratch Build computes for it: per-configuration N-T
// fits over groups with enough sizes (FitAllNT skips thin groups), then the
// bin's P-T fit — deleted when unfittable, because FitAllPT skips such bins
// and the composition replay may refill them.
func (ms *ModelSet) refitBin(bin PTKey) error {
	samples := ms.Bins.bins[bin]
	groups := GroupByKey(samples)
	keys := make([]Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.M < b.M
	})
	for _, k := range keys {
		group := groups[k]
		if len(group) < len(taDegrees) {
			delete(ms.NT, k)
			continue
		}
		m, err := FitNT(group)
		if err != nil {
			return err
		}
		ms.NT[k] = m
	}
	if pt, err := FitPT(ms.NT, samples, bin); err == nil {
		ms.PT[bin] = pt
	} else {
		delete(ms.PT, bin)
	}
	return nil
}

// RebuildFromBins is the reference path incremental refit must match: a
// from-scratch Build over the store's concatenated samples, the recorded
// composition recipes replayed, and the adjustment refit from the stored
// calibration set. It is also the offline rebuild tool behind the serving
// layer's refit-parity CI gate (modelfit -rebuild).
func (ms *ModelSet) RebuildFromBins() (*ModelSet, error) {
	if ms.Bins == nil {
		return nil, fmt.Errorf("%w: model set carries no sample bins", ErrNoModel)
	}
	next, err := Build(ms.Classes, ms.Bins.Flatten())
	if err != nil {
		return nil, err
	}
	next.AdjustMinM = ms.AdjustMinM
	next.Cluster = ms.Cluster
	next.Bins = ms.Bins
	next.Compositions = append([]Composition(nil), ms.Compositions...)
	if err := next.replayCompositions(); err != nil {
		return nil, err
	}
	if err := next.FitAdjustment(ms.Bins.calib); err != nil {
		return nil, err
	}
	return next, nil
}

// diffModels compares the evaluator-visible state of two model sets: per
// (class, M) bin the single-PE N-T model and the P-T model, and per class
// the adjustment transform. Floats are compared bitwise — the refit
// invariant is bit-identity, so a single changed ULP is a changed bin.
func diffModels(old, next *ModelSet) (changed []PTKey, adjChanged []int) {
	bins := make(map[PTKey]bool)
	collectVisibleBins(old, bins)
	collectVisibleBins(next, bins)
	all := make([]PTKey, 0, len(bins))
	for k := range bins {
		all = append(all, k)
	}
	sort.Slice(all, func(i, j int) bool { return ptKeyLess(all[i], all[j]) })
	for _, bin := range all {
		diag := Key{Class: bin.Class, P: bin.M, M: bin.M}
		if !sameNT(old.NT[diag], next.NT[diag]) || !samePT(old.PT[bin], next.PT[bin]) {
			changed = append(changed, bin)
		}
	}
	classes := old.Classes
	if next.Classes > classes {
		classes = next.Classes
	}
	for class := 0; class < classes; class++ {
		a, b := old.Adjust[class], next.Adjust[class]
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil,
			!sameFloat(a.A, b.A) || !sameFloat(a.B, b.B):
			adjChanged = append(adjChanged, class)
		}
	}
	return changed, adjChanged
}

// collectVisibleBins adds every (class, M) bin an evaluator of ms can read:
// bins with a P-T model and bins with a single-PE (P = M) N-T model.
func collectVisibleBins(ms *ModelSet, into map[PTKey]bool) {
	for k := range ms.NT {
		if k.P == k.M {
			into[PTKey{Class: k.Class, M: k.M}] = true
		}
	}
	for k := range ms.PT {
		into[k] = true
	}
}

func sameNT(a, b *NTModel) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Key == b.Key && sameFloats(a.TaCoeff, b.TaCoeff) && sameFloats(a.TcCoeff, b.TcCoeff)
}

func samePT(a, b *PTModel) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Key == b.Key &&
		sameFloats(a.KaCoeff, b.KaCoeff) && sameFloats(a.KcCoeff, b.KcCoeff) &&
		sameFloats(a.RaCoeff, b.RaCoeff) && sameFloats(a.RcCoeff, b.RcCoeff) &&
		sameInts(a.Ps, b.Ps) &&
		sameFloat(a.TaScale, b.TaScale) && sameFloat(a.TcScale, b.TcScale) &&
		a.Composed == b.Composed
}

// sameFloat compares bitwise: bit-identity is the refit invariant, and the
// serialized model must stay byte-stable, so -0 vs +0 (or differing NaN
// payloads) count as a change.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortPTKeys orders (class, M) bins deterministically (class, then M).
func sortPTKeys(keys []PTKey) {
	sort.Slice(keys, func(i, j int) bool { return ptKeyLess(keys[i], keys[j]) })
}

// ptKeyLess is the canonical (class, then M) bin order.
func ptKeyLess(a, b PTKey) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.M < b.M
}
