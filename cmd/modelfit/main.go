// Command modelfit runs one of the paper's measurement campaigns on the
// simulated cluster, fits the N-T/P-T estimation models (with composition
// and adjustment), and writes them as JSON for later use by hetopt.
//
// Usage:
//
//	modelfit -campaign nl -out models.json
//	modelfit -campaign basic            # prints model summary to stdout
//
// A model file written by modelfit carries its training-sample bins, so it
// can also be rebuilt from scratch — optionally with a refit batch merged in
// — without re-running the campaign:
//
//	modelfit -rebuild models.json -batch batch.json -out models2.json
//
// The batch file holds {"samples": [...], "calibration": [...]} records in
// the same shape as hetserve's POST /v1/refit body. The rebuild path is the
// reference the refit-parity CI gate diffs the served answers against: a
// full Build over the concatenated samples must agree bit-for-bit with the
// server's incremental refit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hetmodel/internal/core"
	"hetmodel/internal/experiments"
	"hetmodel/internal/measure"
	"hetmodel/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("modelfit: ")
	var (
		campaign = flag.String("campaign", "basic", "campaign to run: basic, nl, or ns")
		out      = flag.String("out", "", "write the fitted models as JSON to this file")
		diag     = flag.Bool("diag", false, "print per-bin fit diagnostics")
		cv       = flag.Bool("cv", false, "leave-one-out cross-validation of the N-T fits")
		workers  = flag.Int("workers", 0, "concurrent campaign simulations (0 = GOMAXPROCS, 1 = sequential)")
		rebuild  = flag.String("rebuild", "", "rebuild models from the sample bins of this model file instead of running a campaign")
		batch    = flag.String("batch", "", "with -rebuild: merge this refit batch file ({\"samples\":[...],\"calibration\":[...]}) before rebuilding")
	)
	version.AddFlag()
	flag.Parse()
	version.MaybePrint("modelfit")
	if *rebuild != "" {
		if err := runRebuild(*rebuild, *batch, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *batch != "" {
		log.Fatal("-batch requires -rebuild")
	}

	var camp measure.Campaign
	switch strings.ToLower(*campaign) {
	case "basic":
		camp = measure.BasicCampaign()
	case "nl":
		camp = measure.NLCampaign()
	case "ns":
		camp = measure.NSCampaign()
	default:
		log.Fatalf("unknown campaign %q (want basic, nl, or ns)", *campaign)
	}

	ctx, err := experiments.NewPaperContext()
	if err != nil {
		log.Fatal(err)
	}
	ctx.Workers = *workers
	bm, err := ctx.BuildModel(camp)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("campaign %s: %d runs, %.0f s simulated measurement time (%.1f h)\n",
		camp.Name, bm.Result.Runs, bm.Result.TotalCost(), bm.Result.TotalCost()/3600)
	fmt.Printf("models: %d N-T bins, %d P-T bins, composition Ta x%.3f Tc x%.2f\n",
		len(bm.Models.NT), len(bm.Models.PT), bm.TaScale, experiments.TcScaleDefault)
	for class := 0; class < bm.Models.Classes; class++ {
		if lt := bm.Models.Adjust[class]; lt != nil {
			fmt.Printf("adjustment class %d: Tc' = %.3f*Tc %+.3f\n", class, lt.A, lt.B)
		}
	}
	if *diag {
		fmt.Print(bm.Models.RenderDiagnostics())
	}
	if *cv {
		results, err := core.CrossValidateNT(bm.Result.Samples)
		if err != nil {
			log.Fatal(err)
		}
		if len(results) == 0 {
			fmt.Println("cross-validation: no validatable bins (zero degrees of freedom — distrust extrapolation)")
		} else {
			fmt.Printf("cross-validation: %d bins, worst held-out |Ta error| %.3f, worst per-bin median %.3f\n",
				len(results), core.WorstCVError(results), core.MedianCVError(results))
		}
	}

	if *out == "" {
		return
	}
	if err := writeModel(*out, bm.Models); err != nil {
		log.Fatal(err)
	}
}

// batchFile is the on-disk refit batch: the same shape as the JSON body of
// hetserve's POST /v1/refit.
type batchFile struct {
	Samples     []core.StoredSample `json:"samples"`
	Calibration []core.StoredSample `json:"calibration"`
}

// runRebuild loads a binned model file, optionally merges a refit batch into
// its bins (bookkeeping only), and refits everything from scratch over the
// concatenated samples — the reference answer the incremental-refit parity
// gate compares the server against.
func runRebuild(modelPath, batchPath, outPath string) error {
	ms, err := core.LoadModelSetFile(modelPath)
	if err != nil {
		return err
	}
	if ms.Bins == nil {
		return fmt.Errorf("%s carries no sample bins; refit a model written by a current modelfit", modelPath)
	}
	if batchPath != "" {
		data, err := os.ReadFile(batchPath)
		if err != nil {
			return err
		}
		var bf batchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("parse %s: %v", batchPath, err)
		}
		var delta core.SampleDelta
		for _, s := range bf.Samples {
			delta.Samples = append(delta.Samples, s.Sample())
		}
		for _, s := range bf.Calibration {
			delta.Calibration = append(delta.Calibration, s.Sample())
		}
		merged, rep, err := ms.Bins.MergeDelta(delta, ms.Classes)
		if err != nil {
			return err
		}
		ms.Bins = merged
		fmt.Printf("merged %s: %d appended, %d replaced, %d bins touched\n",
			batchPath, rep.Appended+rep.CalibAppended, rep.Replaced+rep.CalibReplaced, len(rep.Touched))
	}
	rebuilt, err := ms.RebuildFromBins()
	if err != nil {
		return err
	}
	fmt.Printf("rebuilt from %d binned samples: %d N-T bins, %d P-T bins\n",
		rebuilt.Bins.Len(), len(rebuilt.NT), len(rebuilt.PT))
	if outPath == "" {
		return nil
	}
	return writeModel(outPath, rebuilt)
}

func writeModel(path string, ms *core.ModelSet) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	return nil
}
