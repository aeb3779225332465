// Command experiments regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7 -scale 0.1 -seed 1
//	experiments -run all -scale 0.01
//
// Scale multiplies the paper's dataset sizes (1.0 = paper scale; the default
// 0.05 finishes the full suite in a couple of minutes on a laptop).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment id (table1, fig4..fig11, table3) or \"all\"")
		scale = flag.Float64("scale", 0.05, "dataset size multiplier (1.0 = paper scale)")
		seed  = flag.Int64("seed", 1, "random seed")
		list  = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Paper)
		}
		return
	}

	cfg := experiments.Config{Out: os.Stdout, Scale: *scale, Seed: *seed}
	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
			os.Exit(1)
		}
		toRun = []experiments.Experiment{e}
	}
	ctx := context.Background()
	for _, e := range toRun {
		start := time.Now()
		fmt.Printf("\n######## %s — %s\n", e.ID, e.Paper)
		if err := e.Run(ctx, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
}
