// Command hetopt estimates the optimal PE configuration and process
// allocation for a problem size, using either a saved model file (from
// modelfit -out) or a freshly built one.
//
// Usage:
//
//	hetopt -model models.json -n 9600
//	hetopt -campaign nl -n 9600 -verify    # also simulate every candidate
//	hetopt -campaign nl -n 9600 -heuristic # hill-climb instead of exhaustive
//	hetopt -campaign nl -n 9600 -topk 5    # ranked list instead of one winner
//	hetopt -model models.json -n 9600 -classes 0 -maxprocs 8
//
// Every exhaustive run takes one route: the paper's evaluation grid streamed
// through the compiled, pruned search (ModelSet.OptimizeSpace), which
// reports how many candidates its lower bounds skipped. The -classes,
// -maxprocs and -maxbytes flags restrict the candidate set structurally —
// the kernel prunes whole subtrees that cannot satisfy them, and the ranking
// is bit-identical to filtering the unconstrained stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/experiments"
	"hetmodel/internal/measure"
	"hetmodel/internal/stats"
	"hetmodel/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetopt: ")
	var (
		modelPath = flag.String("model", "", "JSON model file written by modelfit")
		campaign  = flag.String("campaign", "nl", "campaign to build when -model is not given: basic, nl, or ns")
		n         = flag.Int("n", 6400, "problem size N to optimize for")
		heuristic = flag.Bool("heuristic", false, "use the hill-climbing search instead of exhaustive enumeration")
		verify    = flag.Bool("verify", false, "simulate every candidate and report the actual optimum")
		workers   = flag.Int("workers", 0, "concurrent simulations/evaluations (0 = GOMAXPROCS, 1 = sequential)")
		topk      = flag.Int("topk", 1, "report the K best configurations instead of only the winner")
		classesCS = flag.String("classes", "", "comma-separated PE classes a candidate may use (empty = all)")
		maxprocs  = flag.Int("maxprocs", 0, "cap on the total process count P (0 = no cap)")
		maxbytes  = flag.Float64("maxbytes", 0, "cap on the per-PE resident set in bytes, M·8N²/P (0 = no cap)")
	)
	version.AddFlag()
	flag.Parse()
	version.MaybePrint("hetopt")
	ctx, err := experiments.NewPaperContext()
	if err != nil {
		log.Fatal(err)
	}
	ctx.Workers = *workers

	var models *core.ModelSet
	if *modelPath != "" {
		models, err = core.LoadModelSetFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var camp measure.Campaign
		switch strings.ToLower(*campaign) {
		case "basic":
			camp = measure.BasicCampaign()
		case "nl":
			camp = measure.NLCampaign()
		case "ns":
			camp = measure.NSCampaign()
		default:
			log.Fatalf("unknown campaign %q", *campaign)
		}
		bm, err := ctx.BuildModel(camp)
		if err != nil {
			log.Fatal(err)
		}
		models = bm.Models
	}

	cons, err := parseConstraints(*classesCS, *maxprocs, *maxbytes)
	if err != nil {
		log.Fatal(err)
	}
	var best cluster.Configuration
	var tau float64
	if *heuristic {
		if *topk > 1 || cons != nil {
			log.Fatal("-heuristic tracks a single unconstrained incumbent; it cannot be combined with -topk, -classes, -maxprocs or -maxbytes")
		}
		var evals int
		best, tau, evals, err = models.OptimizeHeuristic(cluster.PaperEvaluationSpace(), *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heuristic search: %d model evaluations\n", evals)
		printWinner(os.Stdout, *n, best, tau)
	} else {
		best, tau, err = search(os.Stdout, models, *n, core.SearchOptions{Workers: *workers, TopK: *topk, Constraints: cons})
		if err != nil {
			log.Fatal(err)
		}
	}

	if !*verify {
		return
	}
	run, err := ctx.Run(best, *n)
	if err != nil {
		log.Fatal(err)
	}
	act, tHat, err := ctx.ActualBest(experiments.EvalConfigs(), *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated: chosen config runs in %.1f s; actual best %s runs in %.1f s\n",
		run.WallTime, act, tHat)
	fmt.Printf("errors: (tau-That)/That = %+.3f, (tauHat-That)/That = %+.3f\n",
		stats.RelError(tau, tHat), stats.RelError(run.WallTime, tHat))
}

// search streams the paper's evaluation grid through the compiled search
// and prints the outcome: the search statistics, then the single winner or,
// for TopK > 1, the ranked list. It returns the winner.
func search(out io.Writer, models *core.ModelSet, n int, opts core.SearchOptions) (cluster.Configuration, float64, error) {
	res, err := models.OptimizeSpace(cluster.PaperEvaluationSpace(), n, opts)
	if err != nil {
		return cluster.Configuration{}, 0, err
	}
	fmt.Fprintf(out, "streaming search: %d candidates, %d scored, %d pruned (%.1f%% pruned)\n",
		res.Size, res.Scored, res.Pruned, 100*float64(res.Pruned)/float64(res.Size))
	best := res.Best[0]
	if opts.TopK > 1 {
		fmt.Fprintf(out, "N=%d top %d configurations (P1,M1,P2,M2):\n", n, len(res.Best))
		for i, e := range res.Best {
			fmt.Fprintf(out, "  %2d. %s  tau = %.1f s\n", i+1, e.Config, e.Tau)
		}
	} else {
		printWinner(out, n, best.Config, best.Tau)
	}
	return best.Config, best.Tau, nil
}

func printWinner(out io.Writer, n int, best cluster.Configuration, tau float64) {
	fmt.Fprintf(out, "N=%d estimated best configuration %s (P1,M1,P2,M2), tau = %.1f s\n", n, best, tau)
}

// parseConstraints assembles the structured search constraints from the
// -classes/-maxprocs/-maxbytes flags; nil when all three are unset.
func parseConstraints(classesCS string, maxProcs int, maxBytes float64) (*core.Constraints, error) {
	c := &core.Constraints{MaxTotalProcs: maxProcs, MaxBytesPerPE: maxBytes}
	if classesCS != "" {
		for _, f := range strings.Split(classesCS, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad -classes entry %q: %v", f, err)
			}
			c.Classes = append(c.Classes, v)
		}
	}
	if len(c.Classes) == 0 && c.MaxTotalProcs == 0 && c.MaxBytesPerPE == 0 {
		return nil, nil
	}
	return c, nil
}
