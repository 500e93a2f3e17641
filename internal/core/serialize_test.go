package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetmodel/internal/cluster"
)

// TestSerializeRoundTrip: save → load → Validate → save again is byte-stable
// and the reloaded model answers estimates identically, with and without a
// cluster descriptor. Byte stability is what lets the committed model
// fixtures diff cleanly across regenerations.
func TestSerializeRoundTrip(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testSerializeRoundTrip(t, nil) })
	t.Run("cluster", func(t *testing.T) { testSerializeRoundTrip(t, tightDescriptor()) })
}

func testSerializeRoundTrip(t *testing.T, desc *cluster.Descriptor) {
	ms, err := Build(2, twoClassWorld())
	if err != nil {
		t.Fatal(err)
	}
	ms.Cluster = desc
	first, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}

	loaded := &ModelSet{}
	if err := json.Unmarshal(first, loaded); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("round-tripped model invalid: %v", err)
	}
	second, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("serialization is not byte-stable across a round trip")
	}
	if !reflect.DeepEqual(loaded.Cluster, desc) || bytes.Contains(first, []byte(`"cluster"`)) != (desc != nil) {
		t.Errorf("descriptor %+v round-tripped to %+v in %d bytes", desc, loaded.Cluster, len(first))
	}

	excluded := 0
	for _, n := range []float64{400, 1600, 3200, 6400} {
		for _, cfg := range []int{0, 1} {
			use := twoClassWorld()[cfg].Config
			want, errW := ms.Estimate(use, n)
			got, errG := loaded.Estimate(use, n)
			if (errW == nil) != (errG == nil) || want != got {
				t.Errorf("N=%v cfg=%v: loaded model estimates %v (%v), want %v (%v)",
					n, use, got, errG, want, errW)
			}
			if math.IsInf(got, 1) {
				excluded++
			}
		}
	}
	if (excluded > 0) != (desc != nil) {
		t.Errorf("loaded model excludes %d probes", excluded)
	}
}

// TestSerializeBinnedRoundTrip: a model carrying its sample bins,
// compositions and calibration set — the state BuildModels produces —
// round-trips byte-stably, and the loaded bins support an exact rebuild:
// RebuildFromBins on the loaded model reproduces it bit for bit, so a
// reloaded model file is refittable with the same guarantees as the
// in-memory original.
func TestSerializeBinnedRoundTrip(t *testing.T) {
	ms := refitWorld(t)
	first, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &ModelSet{}
	if err := json.Unmarshal(first, loaded); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("round-tripped binned model invalid: %v", err)
	}
	if loaded.Bins == nil {
		t.Fatal("bins lost in round trip")
	}
	if got, want := loaded.Bins.Len(), ms.Bins.Len(); got != want {
		t.Fatalf("loaded %d binned samples, want %d", got, want)
	}
	if got, want := len(loaded.Bins.Calibration()), len(ms.Bins.Calibration()); got != want {
		t.Fatalf("loaded %d calibration samples, want %d", got, want)
	}
	if got, want := len(loaded.Compositions), len(ms.Compositions); got != want {
		t.Fatalf("loaded %d compositions, want %d", got, want)
	}
	second, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("binned serialization is not byte-stable across a round trip")
	}
	rebuilt, err := loaded.RebuildFromBins()
	if err != nil {
		t.Fatal(err)
	}
	third, err := json.Marshal(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Error("rebuild from loaded bins does not reproduce the saved model")
	}
	// A binless, descriptor-less model must keep its original byte
	// representation: the later sections are omitempty, so old files stay
	// diff-clean.
	plain, err := Build(2, twoClassWorld())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"bins"`, `"calibration"`, `"compositions"`, `"cluster"`} {
		if bytes.Contains(data, []byte(field)) {
			t.Errorf("binless model serializes %s", field)
		}
	}
}

// TestLoadRejectsMiskeyedBin: a bin whose samples disagree with its header
// key is corruption, not data.
func TestLoadRejectsMiskeyedBin(t *testing.T) {
	ms := refitWorld(t)
	good, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	var bins []map[string]json.RawMessage
	if err := json.Unmarshal(m["bins"], &bins); err != nil {
		t.Fatal(err)
	}
	bins[0]["class"] = json.RawMessage("1")
	bins[0]["m"] = json.RawMessage("1")
	patched, err := json.Marshal(bins)
	if err != nil {
		t.Fatal(err)
	}
	m["bins"] = patched
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got := &ModelSet{}
	err = got.UnmarshalJSON(data)
	if !errors.Is(err, ErrBadSamples) || !strings.Contains(err.Error(), "holds sample keyed") {
		t.Fatalf("miskeyed bin: got %v, want ErrBadSamples mentioning the key mismatch", err)
	}
}

// TestLoadModelSetFile: the shared loading path of hetopt/hetserve accepts a
// valid file and rejects every corruption class with a useful error.
func TestLoadModelSetFile(t *testing.T) {
	ms, err := Build(2, twoClassWorld())
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	loaded, err := LoadModelSetFile(write("good.json", good))
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if loaded.Classes != ms.Classes {
		t.Errorf("loaded %d classes, want %d", loaded.Classes, ms.Classes)
	}

	if _, err := LoadModelSetFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}

	corrupt := func(mutate func(m map[string]json.RawMessage)) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// withCluster attaches a raw "cluster" section to the valid file.
	withCluster := func(nodes, rankBytes string) []byte {
		return corrupt(func(m map[string]json.RawMessage) {
			m["cluster"] = json.RawMessage(`{"nodes":` + nodes + `,"rankBytes":` + rankBytes + `}`)
		})
	}
	const (
		goodNodes = `[[{"cpus":1,"memoryBytes":1e9}],[{"cpus":2,"memoryBytes":5e8},{"cpus":2,"memoryBytes":5e8}]]`
		goodRank  = `{"n2OverP":8,"n":512,"fixed":1e6}`
	)
	if _, err := LoadModelSetFile(write("cluster.json", withCluster(goodNodes, goodRank))); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"descriptor class count", withCluster(`[[{"cpus":1,"memoryBytes":1e9}]]`, goodRank), "1 classes"},
		{"descriptor empty class", withCluster(`[[{"cpus":1,"memoryBytes":1e9}],[]]`, goodRank), "no nodes"},
		{"descriptor zero cpus", withCluster(`[[{"cpus":0,"memoryBytes":1e9}],[{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "0 cpus"},
		{"descriptor negative cpus", withCluster(`[[{"cpus":-4,"memoryBytes":1e9}],[{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "-4 cpus"},
		{"descriptor missing memory", withCluster(`[[{"cpus":1}],[{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "memoryBytes 0"},
		{"descriptor negative memory", withCluster(`[[{"cpus":1,"memoryBytes":-5e8}],[{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "memoryBytes -5e+08"},
		{"descriptor infinite memory", withCluster(`[[{"cpus":1,"memoryBytes":1e999}],[{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "parse"},
		{"descriptor cpu total over the cap", withCluster(`[[{"cpus":1,"memoryBytes":1e9}],[{"cpus":65535,"memoryBytes":5e8},{"cpus":2,"memoryBytes":5e8}]]`, goodRank), "a class holds 1 to 65536"},
		{"descriptor negative coefficient", withCluster(goodNodes, `{"n2OverP":8,"n":-512,"fixed":1e6}`), "rankBytes"},
		{"descriptor infinite coefficient", withCluster(goodNodes, `{"n2OverP":1e999,"n":512,"fixed":1e6}`), "parse"},
		{"truncated", good[:len(good)/2], "parse"},
		{"not json", []byte("pe classes go brrr"), "parse"},
		{"wrong version", corrupt(func(m map[string]json.RawMessage) {
			m["version"] = json.RawMessage("99")
		}), "version"},
		{"zero classes", corrupt(func(m map[string]json.RawMessage) {
			m["classes"] = json.RawMessage("0")
		}), "classes"},
		{"no models", corrupt(func(m map[string]json.RawMessage) {
			m["nt"] = json.RawMessage("[]")
			m["pt"] = json.RawMessage("[]")
		}), "invalid"},
		{"truncated coefficients", corrupt(func(m map[string]json.RawMessage) {
			var nt []map[string]json.RawMessage
			if err := json.Unmarshal(m["nt"], &nt); err != nil {
				t.Fatal(err)
			}
			nt[0]["TaCoeff"] = json.RawMessage("[1.0]")
			data, err := json.Marshal(nt)
			if err != nil {
				t.Fatal(err)
			}
			m["nt"] = data
		}), "malformed"},
		{"null model entry", corrupt(func(m map[string]json.RawMessage) {
			var nt []json.RawMessage
			if err := json.Unmarshal(m["nt"], &nt); err != nil {
				t.Fatal(err)
			}
			nt[0] = json.RawMessage("null")
			data, err := json.Marshal(nt)
			if err != nil {
				t.Fatal(err)
			}
			m["nt"] = data
		}), "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadModelSetFile(write(tc.name+".json", tc.data))
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestUnmarshalRejectsBadSamplesKind: decode errors carry ErrBadSamples so
// callers can distinguish malformed models from I/O failures.
func TestUnmarshalRejectsBadSamplesKind(t *testing.T) {
	ms := &ModelSet{}
	err := ms.UnmarshalJSON([]byte(`{"version":1,"classes":-3}`))
	if !errors.Is(err, ErrBadSamples) {
		t.Errorf("got %v, want ErrBadSamples", err)
	}
}
