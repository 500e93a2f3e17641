package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hetmodel/internal/experiments"
	"hetmodel/internal/measure"
)

// TestFixtureIsFresh: `modelfit -campaign nl -out` reproduces the committed
// model fixture byte for byte, so the file hetserve, hetrouter and the smoke
// scripts load is the model the pipeline builds today — cluster descriptor
// included. Regenerate with
//
//	go run ./cmd/modelfit -campaign nl -out cmd/hetserve/testdata/model_nl.json
func TestFixtureIsFresh(t *testing.T) {
	ctx, err := experiments.NewPaperContext()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := ctx.BuildModel(measure.NLCampaign())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model_nl.json")
	if err := writeModel(path, bm.Models); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../hetserve/testdata/model_nl.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rebuilt NL model (%d bytes) differs from the committed fixture (%d bytes)", len(got), len(want))
	}
	if !bytes.Contains(want, []byte(`"cluster"`)) {
		t.Fatal("fixture carries no cluster descriptor")
	}
}
