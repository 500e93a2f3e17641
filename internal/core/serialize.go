package core

import (
	"encoding/json"
	"fmt"
	"os"

	"hetmodel/internal/cluster"
	"hetmodel/internal/stats"
)

// modelSetJSON is the stable on-disk representation of a ModelSet (maps
// keyed by structs are flattened into entry lists). The bins, calibration
// and compositions sections carry the incremental-refit state and the cluster
// section the §3.4 memory rule; all four are omitempty, so files written
// before they existed — and models built without them — keep their exact
// byte representation.
type modelSetJSON struct {
	Version      int                            `json:"version"`
	Classes      int                            `json:"classes"`
	NT           []*NTModel                     `json:"nt"`
	PT           []*PTModel                     `json:"pt"`
	Adjust       map[int]*stats.LinearTransform `json:"adjust,omitempty"`
	AdjustMinM   int                            `json:"adjustMinM"`
	Cluster      *cluster.Descriptor            `json:"cluster,omitempty"`
	Compositions []Composition                  `json:"compositions,omitempty"`
	Bins         []binJSON                      `json:"bins,omitempty"`
	Calibration  []StoredSample                 `json:"calibration,omitempty"`
}

// binJSON is one persisted (class, M) sample bin, samples in arrival order.
type binJSON struct {
	Class   int            `json:"class"`
	M       int            `json:"m"`
	Samples []StoredSample `json:"samples"`
}

const serializeVersion = 1

// MarshalJSON implements json.Marshaler.
func (ms *ModelSet) MarshalJSON() ([]byte, error) {
	out := modelSetJSON{
		Version:      serializeVersion,
		Classes:      ms.Classes,
		Adjust:       ms.Adjust,
		AdjustMinM:   ms.AdjustMinM,
		Cluster:      ms.Cluster,
		Compositions: ms.Compositions,
	}
	for _, k := range ms.Keys() {
		out.NT = append(out.NT, ms.NT[k])
	}
	for _, k := range ms.PTKeys() {
		out.PT = append(out.PT, ms.PT[k])
	}
	if ms.Bins != nil {
		for _, k := range ms.Bins.Keys() {
			bin := binJSON{Class: k.Class, M: k.M}
			for _, s := range ms.Bins.Samples(k) {
				bin.Samples = append(bin.Samples, StoredSample{Class: s.Class, P: s.P, M: s.M, N: s.N, Ta: s.Ta, Tc: s.Tc})
			}
			out.Bins = append(out.Bins, bin)
		}
		for _, s := range ms.Bins.Calibration() {
			out.Calibration = append(out.Calibration, StoredSample{Class: s.Class, P: s.P, M: s.M, N: s.N, Ta: s.Ta, Tc: s.Tc})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (ms *ModelSet) UnmarshalJSON(data []byte) error {
	var in modelSetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != serializeVersion {
		return fmt.Errorf("core: unsupported model file version %d", in.Version)
	}
	if in.Classes <= 0 {
		return fmt.Errorf("%w: %d classes", ErrBadSamples, in.Classes)
	}
	ms.Classes = in.Classes
	ms.Adjust = in.Adjust
	ms.AdjustMinM = in.AdjustMinM
	ms.Cluster = in.Cluster
	ms.NT = make(map[Key]*NTModel, len(in.NT))
	for _, m := range in.NT {
		if m == nil || len(m.TaCoeff) != len(taDegrees) || len(m.TcCoeff) != len(tcDegrees) {
			return fmt.Errorf("%w: malformed N-T model", ErrBadSamples)
		}
		ms.NT[m.Key] = m
	}
	ms.PT = make(map[PTKey]*PTModel, len(in.PT))
	for _, m := range in.PT {
		if m == nil || len(m.KaCoeff) != 2 || len(m.KcCoeff) != 3 {
			return fmt.Errorf("%w: malformed P-T model", ErrBadSamples)
		}
		ms.PT[m.Key] = m
	}
	ms.Compositions = in.Compositions
	ms.Bins = nil
	if len(in.Bins) > 0 || len(in.Calibration) > 0 {
		var samples, calib []Sample
		for _, bin := range in.Bins {
			for _, s := range bin.Samples {
				if s.Class != bin.Class || s.M != bin.M {
					return fmt.Errorf("%w: bin class%d/M%d holds sample keyed class%d/M%d",
						ErrBadSamples, bin.Class, bin.M, s.Class, s.M)
				}
				samples = append(samples, s.Sample())
			}
		}
		for _, s := range in.Calibration {
			calib = append(calib, s.Sample())
		}
		ms.Bins = NewBinStore(samples, calib)
	}
	return nil
}

// LoadModelSetFile reads and decodes a model file written by modelfit,
// rejecting files that decode cleanly but do not describe a usable estimator
// (e.g. an empty or truncated model list) via Validate. It is the shared
// loading path of hetopt, hetserve and the serving layer's reload endpoint.
func LoadModelSetFile(path string) (*ModelSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ms := &ModelSet{}
	if err := json.Unmarshal(data, ms); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	if err := ms.Validate(); err != nil {
		return nil, fmt.Errorf("invalid model file %s: %v", path, err)
	}
	return ms, nil
}
