// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated testbed and writes the full report.
//
// Usage:
//
//	experiments               # report to stdout (takes a few seconds)
//	experiments -out report.txt
package main

import (
	"bufio"
	"flag"
	"log"
	"os"

	"hetmodel/internal/experiments"
	"hetmodel/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	svgDir := flag.String("svg", "", "also render every figure as SVG into this directory")
	workers := flag.Int("workers", 0, "concurrent simulations per campaign/sweep (0 = GOMAXPROCS, 1 = sequential)")
	version.AddFlag()
	flag.Parse()
	version.MaybePrint("experiments")
	ctx, err := experiments.NewPaperContext()
	if err != nil {
		log.Fatal(err)
	}
	ctx.Workers = *workers
	if *svgDir != "" {
		files, err := ctx.WriteFigureSVGs(*svgDir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d figures to %s", len(files), *svgDir)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := ctx.WriteFullReport(bw); err != nil {
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
}
