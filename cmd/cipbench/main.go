// Command cipbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cipbench -exp fig4 [-preset quick|full] [-seed 1]
//	cipbench -exp all
//	cipbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/experiments"
	"github.com/cip-fl/cip/internal/flcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cipbench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	preset := flag.String("preset", "quick", "scale: quick or full")
	seed := flag.Int64("seed", 1, "base random seed")
	repeat := flag.Int("repeat", 1, "run each experiment N times and report mean±std")
	cacheDir := flag.String("cache-dir", "",
		"persist each completed (experiment, scale, seed, precision) cell here and reuse it on rerun, "+
			"so an interrupted sweep resumes from the finished cells; empty disables caching")
	list := flag.Bool("list", false, "list experiment ids and exit")
	precisionFlag := flcli.RegisterPrecisionFlag()
	flag.Parse()

	if _, err := flcli.ApplyPrecisionFlag(*precisionFlag); err != nil {
		return err
	}

	if *list || *exp == "" {
		fmt.Println("experiments (DESIGN.md §4 maps each to its paper artifact):")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
		return nil
	}

	scale := datasets.Quick
	switch *preset {
	case "quick":
	case "full":
		scale = datasets.Full
	default:
		return fmt.Errorf("unknown preset %q (want quick or full)", *preset)
	}
	cfg := experiments.Config{Scale: scale, Seed: *seed}

	var store *experiments.Store // nil disables cell caching
	if *cacheDir != "" {
		store = &experiments.Store{Dir: *cacheDir}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		t, err := store.Repeat(id, cfg, *repeat)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Print(t.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
