package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/measure"
	"hetmodel/internal/parallel"
)

// TestFileModelMatchesPipeline: the NL model as BuildModel hands it to the
// pipeline and the same model after a trip through a model file give one
// answer — the whole ranked paper grid, index for index and τ bit for bit,
// at the sizes where the §3.4 memory rule bites (57, 48, 38 and 20 of the 62
// candidates fit), at one and eight workers and over a three-way range
// split merged like the fleet merges it. A file that drops the rule ranks
// all 62 and crowns (1,4,8,1) at N = 16000, a configuration that pages.
func TestFileModelMatchesPipeline(t *testing.T) {
	ctx, err := NewPaperContext()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := ctx.BuildModel(measure.NLCampaign())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(bm.Models)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nl.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModelSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := cluster.PaperEvaluationSpace().Compile()
	if err != nil {
		t.Fatal(err)
	}
	size := grid.Size()
	split := []core.IndexRange{{Lo: 0, Hi: size / 3}, {Lo: size / 3, Hi: 2 * size / 3}, {Lo: 2 * size / 3, Hi: size}}
	k := int(size) - 1
	for n, finite := range map[int]int{9600: 57, 11200: 48, 12800: 38, 16000: 20} {
		var want []parallel.Candidate
		for _, ms := range []*core.ModelSet{bm.Models, loaded} {
			ev := ms.Compile(float64(n))
			for _, workers := range []int{1, 8} {
				res, err := ev.Search(grid, core.SearchOptions{Workers: workers, TopK: k})
				if err != nil {
					t.Fatal(err)
				}
				got := candidates(res)
				shards := make([][]parallel.Candidate, len(split))
				for i := range split {
					part, err := ev.Search(grid, core.SearchOptions{Workers: workers, TopK: k, Range: &split[i]})
					if err != nil {
						t.Fatal(err)
					}
					shards[i] = candidates(part)
				}
				merged := parallel.MergeTopK(k, shards)
				if want == nil {
					want = got
					if len(want) != finite {
						t.Fatalf("N=%d: %d candidates fit, want %d", n, len(want), finite)
					}
				}
				if !sameBits(got, want) || !sameBits(merged, want) {
					t.Fatalf("N=%d workers=%d file=%v: ranked %v, merged shards %v, pipeline %v",
						n, workers, ms == loaded, got, merged, want)
				}
			}
		}
		if n == 16000 {
			use := make([]cluster.ClassUse, grid.Classes())
			grid.At(want[0].Index, use)
			if got := (cluster.Configuration{Use: use}).String(); got != "(1,3,8,1)" {
				t.Fatalf("N=16000 winner %s, want (1,3,8,1)", got)
			}
		}
	}
}

func candidates(res *core.SearchResult) []parallel.Candidate {
	out := make([]parallel.Candidate, len(res.Best))
	for i, e := range res.Best {
		out[i] = parallel.Candidate{Index: res.BestIndex[i], Score: e.Tau}
	}
	return out
}

func sameBits(a, b []parallel.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
