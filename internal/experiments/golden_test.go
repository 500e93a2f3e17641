package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// TestCommittedReportAndFiguresAreCurrent is the golden gate: the report and
// the figures committed under docs/ are what the code produces, byte for
// byte, sequentially and at full parallelism. A change to the simulator, the
// fits or the rendering that moves any number must regenerate them
// (EXPERIMENTS.md) and show the diff.
func TestCommittedReportAndFiguresAreCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full report twice")
	}
	docs := filepath.Join("..", "..", "docs")
	committed, err := filepath.Glob(filepath.Join(docs, "figures", "*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range committed {
		committed[i] = filepath.Base(path)
	}
	wantReport, err := os.ReadFile(filepath.Join(docs, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		ctx, err := NewPaperContext()
		if err != nil {
			t.Fatal(err)
		}
		ctx.Workers = workers
		dir := t.TempDir()
		files, err := ctx.WriteFigureSVGs(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		if len(files) != len(committed) {
			t.Fatalf("workers=%d: rendered %v, committed %v", workers, files, committed)
		}
		for i, name := range files {
			if name != committed[i] {
				t.Fatalf("workers=%d: rendered %v, committed %v", workers, files, committed)
			}
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(docs, "figures", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s differs from docs/figures/%s", workers, name, name)
			}
		}
		var report bytes.Buffer
		if err := ctx.WriteFullReport(&report); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(report.Bytes(), wantReport) {
			t.Errorf("workers=%d: report differs from docs/report.txt (%d vs %d bytes); first difference at byte %d",
				workers, report.Len(), len(wantReport), firstDiff(report.Bytes(), wantReport))
		}
	}
}

// firstDiff returns the index of the first byte at which a and b differ.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
