package core

import (
	"fmt"
	"math"
	"sort"

	"hetmodel/internal/cluster"
	"hetmodel/internal/stats"
)

// ModelSet bundles all fitted models for a cluster plus the binning,
// composition and adjustment machinery, and is the estimator the optimizer
// consults.
type ModelSet struct {
	// Classes is the number of PE classes of the cluster.
	Classes int
	// NT holds the N-T models per measured configuration bin.
	NT map[Key]*NTModel
	// PT holds the P-T models per (class, M) bin, fitted or composed.
	PT map[PTKey]*PTModel
	// Adjust holds the paper's §4.1 linear correction of the
	// communication models, one transform per PE class: the P-T Tc
	// estimate of a class running AdjustMinM or more processes per PE is
	// passed through its class's transform. The paper fits a single
	// transform on the N = 6400, P2 = 8 measurements and applies it for
	// M1 ≥ 3 because that is where their deviations concentrate; our
	// simulated testbed's deviations are per class (P-extrapolation for
	// the directly-fitted class, composition error for the composed one),
	// so the correction is fit per class. AdjustMinM = 3 recovers the
	// paper's restriction.
	Adjust map[int]*stats.LinearTransform
	// AdjustMinM is the per-PE process-count threshold above which the
	// correction applies (1 = all multi-PE estimates; paper uses 3).
	AdjustMinM int
	// Cluster, when non-nil, implements the paper's §3.4 memory binning in
	// its simplest form: since the memory requirement of each node "can be
	// predetermined from N and P", configurations predicted not to fit a
	// node of the described cluster are excluded (they estimate +Inf)
	// because no training data exists in the paging regime. Persisted with
	// the models, so a loaded file answers exactly as the set that wrote it.
	Cluster *cluster.Descriptor
	// Bins, when non-nil, holds the training and calibration samples the
	// models were fitted from, partitioned into (class, M) bins. It is
	// persisted alongside the models and is what enables incremental
	// refit (Refit) and the exact rebuild reference (RebuildFromBins).
	Bins *BinStore
	// Compositions records the §3.5 composition steps applied to this
	// model set, in application order, so a refit can replay them after
	// the underlying fits change.
	Compositions []Composition
}

// Composition is one recorded §3.5 composition step: fill the target class's
// missing P-T bins by scaling the source class's models. FitTa marks the Ta
// factor as fitted (FitCompositionScale) rather than hand-chosen, so replay
// after a refit re-derives it from the refitted single-PE models; TaScale
// then records the factor's current value.
type Composition struct {
	Target  int     `json:"target"`
	Source  int     `json:"source"`
	TaScale float64 `json:"taScale"`
	TcScale float64 `json:"tcScale"`
	FitTa   bool    `json:"fitTa,omitempty"`
}

// Build assembles a ModelSet from training samples: all N-T models, all
// directly fittable P-T models.
func Build(classes int, samples []Sample) (*ModelSet, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("%w: %d classes", ErrBadSamples, classes)
	}
	nts, err := FitAllNT(samples)
	if err != nil {
		return nil, err
	}
	return &ModelSet{
		Classes:    classes,
		NT:         nts,
		PT:         FitAllPT(nts, samples),
		AdjustMinM: 1,
	}, nil
}

// ComposeClass fills in the P-T models of a class that lacks them by scaling
// another class's P-T models (§3.5). taScale/tcScale multiply the source
// predictions; the paper uses hand-chosen constants (0.27 and 0.85 for
// Athlon from Pentium-II). The step is recorded in Compositions so an
// incremental refit can replay it against the refitted models.
func (ms *ModelSet) ComposeClass(target, source int, taScale, tcScale float64) error {
	c := Composition{Target: target, Source: source, TaScale: taScale, TcScale: tcScale}
	if err := ms.composeApply(c, true); err != nil {
		return err
	}
	ms.Compositions = append(ms.Compositions, c)
	return nil
}

// ComposeClassFitted is ComposeClass with the Ta factor fitted from the two
// classes' single-PE models (FitCompositionScale) instead of hand-chosen,
// recorded as such so refit replay re-derives it. It returns the fitted
// factor.
func (ms *ModelSet) ComposeClassFitted(target, source int, tcScale float64) (float64, error) {
	scale, err := ms.FitCompositionScale(target, source)
	if err != nil {
		return 0, err
	}
	c := Composition{Target: target, Source: source, TaScale: scale, TcScale: tcScale, FitTa: true}
	if err := ms.composeApply(c, true); err != nil {
		return 0, err
	}
	ms.Compositions = append(ms.Compositions, c)
	return scale, nil
}

// composeApply performs one composition step without recording it. Source
// bins are visited in sorted order so newly-inserted target keys can never
// perturb the walk. strict errors when nothing was composed — right for a
// user-invoked step, wrong for replay (a refit may have directly fitted
// every target bin, leaving the recipe with nothing to do).
func (ms *ModelSet) composeApply(c Composition, strict bool) error {
	if c.TaScale <= 0 || c.TcScale <= 0 {
		return fmt.Errorf("%w: nonpositive composition scale", ErrBadSamples)
	}
	composed := 0
	for _, key := range ms.PTKeys() {
		if key.Class != c.Source {
			continue
		}
		tk := PTKey{Class: c.Target, M: key.M}
		if _, exists := ms.PT[tk]; exists {
			continue
		}
		ms.PT[tk] = ms.PT[key].Compose(c.Target, c.TaScale, c.TcScale)
		composed++
	}
	if strict && composed == 0 {
		return fmt.Errorf("%w: class %d has no P-T models to compose from", ErrNoModel, c.Source)
	}
	return nil
}

// replayCompositions re-derives every composed P-T model from the recorded
// recipes, in recorded order, against the current fits: composed models are
// dropped, fitted Ta factors re-estimated (their single-PE inputs may have
// been refitted), and each recipe re-applied. A bin the refit could now fit
// directly keeps its fitted model — exactly what a from-scratch rebuild
// produces, which is what keeps Refit bit-identical to RebuildFromBins.
func (ms *ModelSet) replayCompositions() error {
	if len(ms.Compositions) == 0 {
		return nil
	}
	for _, key := range ms.PTKeys() {
		if ms.PT[key].Composed {
			delete(ms.PT, key)
		}
	}
	replayed := make([]Composition, 0, len(ms.Compositions))
	for _, c := range ms.Compositions {
		if c.FitTa {
			scale, err := ms.FitCompositionScale(c.Target, c.Source)
			if err != nil {
				return err
			}
			c.TaScale = scale
		}
		if err := ms.composeApply(c, false); err != nil {
			return err
		}
		replayed = append(replayed, c)
	}
	ms.Compositions = replayed
	return nil
}

// FitCompositionScale estimates the Ta composition factor between two
// classes from their single-PE N-T models: the work-weighted ratio
// Σ Ta_target / Σ Ta_source over the sizes both were fit on. Weighting by
// magnitude keeps the large-N speed ratio (what composition must preserve)
// from being polluted by the constant overheads and measurement noise that
// dominate small runs. It returns an error when either class lacks
// single-PE models.
//
// The communication factor cannot be derived from single-PE runs (they have
// no inter-PE communication), which is why the paper hand-picks it; callers
// typically pass the returned Ta scale together with a constant Tc scale to
// ComposeClass.
func (ms *ModelSet) FitCompositionScale(target, source int) (float64, error) {
	var num, den float64
	matched := false
	// Iterate bins in sorted order: the sums below are floating-point, so
	// map-order iteration would make the fitted scale vary run to run.
	for _, key := range ms.Keys() {
		if key.Class != target || key.P != key.M {
			continue
		}
		tm := ms.NT[key]
		sk := Key{Class: source, P: key.P, M: key.M}
		sm, ok := ms.NT[sk]
		if !ok {
			continue
		}
		matched = true
		for _, n := range tm.Ns {
			s := sm.Ta(n)
			if s <= 0 {
				continue
			}
			num += tm.Ta(n)
			den += s
		}
	}
	if !matched || den <= 0 {
		return 0, fmt.Errorf("%w: no overlapping single-PE bins between classes %d and %d", ErrNoModel, target, source)
	}
	return num / den, nil
}

// maxM returns the largest per-PE process count of a configuration.
func maxM(cfg cluster.Configuration) int {
	m := 0
	for _, u := range cfg.Use {
		if u.PEs > 0 && u.Procs > m {
			m = u.Procs
		}
	}
	return m
}

// EstimateClass returns the estimated Ti = Tai + Tci of one class in the
// configuration, applying the paper's binning: single-PE executions
// (P == Mi) use the N-T model, multi-PE executions the P-T model.
func (ms *ModelSet) EstimateClass(cfg cluster.Configuration, class int, n float64) (float64, error) {
	return ms.estimateClassNorm(cfg.Normalize(), class, n)
}

// estimateClassNorm is EstimateClass for a configuration the caller has
// already normalized. Estimate normalizes once and fans out through this —
// the public path used to re-normalize per class, allocating O(classes²)
// slices per candidate.
func (ms *ModelSet) estimateClassNorm(cfg cluster.Configuration, class int, n float64) (float64, error) {
	use := cfg.Use[class]
	if use.PEs == 0 {
		return 0, fmt.Errorf("%w: class %d unused in %s", ErrNoModel, class, cfg)
	}
	p := cfg.TotalProcs()
	if p == use.Procs {
		// Single-PE bin: the whole job runs on one processor.
		key := Key{Class: class, P: p, M: use.Procs}
		nt, ok := ms.NT[key]
		if !ok {
			return 0, fmt.Errorf("%w: no N-T model for %v", ErrNoModel, key)
		}
		return nt.Estimate(n), nil
	}
	key := PTKey{Class: class, M: use.Procs}
	pt, ok := ms.PT[key]
	if !ok {
		return 0, fmt.Errorf("%w: no P-T model for %v", ErrNoModel, key)
	}
	ta := pt.Ta(n, p)
	tc := pt.Tc(n, p)
	// The correction targets the model's extrapolation region (composed
	// classes, P beyond the fitted range): inside the evidence the raw
	// models "match the measurements very well" (paper §4.1).
	if lt := ms.Adjust[class]; lt != nil && use.Procs >= ms.AdjustMinM && pt.Extrapolating(p) {
		tc = lt.Apply(tc)
		if tc < 0 {
			tc = 0
		}
	}
	return ta + tc, nil
}

// Estimate returns the estimated total execution time of the configuration
// at problem size n: the maximum of the per-class estimates (each class's
// critical PE must finish), with the §4.1 adjustment applied when
// configured.
func (ms *ModelSet) Estimate(cfg cluster.Configuration, n float64) (float64, error) {
	cfg = cfg.Normalize()
	if len(cfg.Use) != ms.Classes {
		return 0, fmt.Errorf("%w: %d classes in config, model set has %d", ErrNoModel, len(cfg.Use), ms.Classes)
	}
	mem := compileMemRule(ms.Cluster, n)
	total := math.Inf(-1)
	used := false
	for ci, u := range cfg.Use {
		if u.PEs == 0 {
			continue
		}
		used = true
		ti, err := ms.estimateClassNorm(cfg, ci, n)
		if err != nil {
			return 0, err
		}
		if mem != nil && !mem.fits(ci, u.PEs, u.Procs, cfg.TotalProcs()) {
			ti = math.Inf(1)
		}
		if ti > total {
			total = ti
		}
	}
	if !used {
		return 0, fmt.Errorf("%w: empty configuration", ErrNoModel)
	}
	return total, nil
}

// FitAdjustment fits the §4.1 linear correction of the communication models
// from calibration samples (measured per-class Tc of multi-PE runs, e.g.
// the paper's N = 6400, P2 = 8, M1 sweep), one transform per PE class.
// Samples below the AdjustMinM threshold or from single-PE runs are
// ignored; classes without calibration samples stay uncorrected.
func (ms *ModelSet) FitAdjustment(samples []Sample) error {
	ms.Adjust = nil
	xs := make(map[int][]float64)
	ts := make(map[int][]float64)
	for _, s := range samples {
		if s.M < ms.AdjustMinM || s.P == s.M {
			continue
		}
		pt, ok := ms.PT[PTKey{Class: s.Class, M: s.M}]
		if !ok {
			return fmt.Errorf("%w: no P-T model for adjustment sample %v", ErrNoModel, PTKey{Class: s.Class, M: s.M})
		}
		// Only extrapolation-region samples calibrate the correction,
		// mirroring where it will be applied.
		if !pt.Extrapolating(s.P) {
			continue
		}
		xs[s.Class] = append(xs[s.Class], pt.Tc(float64(s.N), s.P))
		ts[s.Class] = append(ts[s.Class], s.Tc)
	}
	if len(xs) == 0 {
		return nil
	}
	// A pure scaling (rather than the paper's affine transform) is used so
	// the correction stays positive when applied far from the calibration
	// sizes; with calibration at a single large N the two are nearly
	// equivalent there.
	ms.Adjust = make(map[int]*stats.LinearTransform, len(xs))
	for class := range xs {
		lt, err := stats.FitScale(xs[class], ts[class])
		if err != nil {
			return err
		}
		ms.Adjust[class] = &lt
	}
	return nil
}

// Validate checks that the model set is structurally usable as an
// estimator: a positive class count, at least one N-T model, and every
// model keyed consistently within the class range with fully-populated
// coefficients. A decoded model file should be validated before use —
// json.Unmarshal accepts shapes (an empty object with a version, a pruned
// model list) that decode cleanly but cannot score any configuration.
func (ms *ModelSet) Validate() error {
	if ms == nil {
		return fmt.Errorf("%w: nil model set", ErrNoModel)
	}
	if ms.Classes <= 0 {
		return fmt.Errorf("%w: model set has %d classes", ErrNoModel, ms.Classes)
	}
	if len(ms.NT) == 0 {
		return fmt.Errorf("%w: model set has no N-T models", ErrNoModel)
	}
	for k, m := range ms.NT {
		if m == nil {
			return fmt.Errorf("%w: nil N-T model at %v", ErrNoModel, k)
		}
		if k.Class < 0 || k.Class >= ms.Classes {
			return fmt.Errorf("%w: N-T bin %v outside %d classes", ErrNoModel, k, ms.Classes)
		}
		if m.Key != k {
			return fmt.Errorf("%w: N-T model keyed %v stored at %v", ErrNoModel, m.Key, k)
		}
		if len(m.TaCoeff) != len(taDegrees) || len(m.TcCoeff) != len(tcDegrees) {
			return fmt.Errorf("%w: N-T model %v has %d Ta and %d Tc coefficients",
				ErrNoModel, k, len(m.TaCoeff), len(m.TcCoeff))
		}
	}
	for k, m := range ms.PT {
		if m == nil {
			return fmt.Errorf("%w: nil P-T model at %v", ErrNoModel, k)
		}
		if k.Class < 0 || k.Class >= ms.Classes {
			return fmt.Errorf("%w: P-T bin %v outside %d classes", ErrNoModel, k, ms.Classes)
		}
		if m.Key != k {
			return fmt.Errorf("%w: P-T model keyed %v stored at %v", ErrNoModel, m.Key, k)
		}
		if len(m.KaCoeff) != 2 || len(m.KcCoeff) != 3 {
			return fmt.Errorf("%w: P-T model %v has %d Ka and %d Kc coefficients",
				ErrNoModel, k, len(m.KaCoeff), len(m.KcCoeff))
		}
	}
	for class := range ms.Adjust {
		if class < 0 || class >= ms.Classes {
			return fmt.Errorf("%w: adjustment for class %d outside %d classes", ErrNoModel, class, ms.Classes)
		}
	}
	if ms.Cluster != nil {
		if err := ms.Cluster.Validate(ms.Classes); err != nil {
			return fmt.Errorf("%w: %v", ErrNoModel, err)
		}
	}
	for _, c := range ms.Compositions {
		if c.Target < 0 || c.Target >= ms.Classes || c.Source < 0 || c.Source >= ms.Classes {
			return fmt.Errorf("%w: composition %d<-%d outside %d classes", ErrNoModel, c.Target, c.Source, ms.Classes)
		}
		if c.TaScale <= 0 || c.TcScale <= 0 {
			return fmt.Errorf("%w: composition %d<-%d has nonpositive scale", ErrNoModel, c.Target, c.Source)
		}
	}
	if ms.Bins != nil {
		for _, k := range ms.Bins.Keys() {
			for _, s := range ms.Bins.Samples(k) {
				if (PTKey{Class: s.Class, M: s.M}) != k {
					return fmt.Errorf("%w: bin %v holds sample keyed %v", ErrNoModel, k, PTKey{Class: s.Class, M: s.M})
				}
				if err := checkSample(s, ms.Classes); err != nil {
					return err
				}
			}
		}
		for _, s := range ms.Bins.Calibration() {
			if err := checkSample(s, ms.Classes); err != nil {
				return err
			}
		}
	}
	return nil
}

// Keys returns the N-T bins in deterministic order (for reports and tests).
func (ms *ModelSet) Keys() []Key {
	out := make([]Key, 0, len(ms.NT))
	for k := range ms.NT {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.M < b.M
	})
	return out
}

// PTKeys returns the P-T bins in deterministic order.
func (ms *ModelSet) PTKeys() []PTKey {
	out := make([]PTKey, 0, len(ms.PT))
	for k := range ms.PT {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.M < b.M
	})
	return out
}
