// Command ciptrain trains a federated model — CIP-defended or the
// undefended legacy baseline — on one of the benchmark presets and saves
// the resulting global model as an artifact cipattack can target.
//
// Usage:
//
//	ciptrain -dataset cifar100 -clients 2 -rounds 25 -alpha 0.9 -out model.gob
//	ciptrain -dataset chmnist -alpha 0 -out legacy.gob   # no defense
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/cip-fl/cip/internal/experiments"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/flcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ciptrain:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "cifar100", "preset: cifar100, cifaraug, chmnist, purchase50")
	clients := flag.Int("clients", 1, "number of FL clients")
	rounds := flag.Int("rounds", 25, "communication rounds")
	alpha := flag.Float64("alpha", 0.9, "CIP blending parameter; 0 trains the undefended baseline")
	seed := flag.Int64("seed", 1, "random seed")
	scaleName := flag.String("preset", "quick", "scale: quick or full")
	out := flag.String("out", "model.gob", "artifact output path")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars, and /debug/pprof on this address; empty disables telemetry")
	ckptPath := flag.String("checkpoint", "",
		"write durable training snapshots here; empty disables checkpointing")
	ckptEvery := flag.Int("checkpoint-every", 1, "snapshot cadence in rounds")
	resume := flag.Bool("resume", false,
		"resume from the snapshot at -checkpoint (fresh start if none exists)")
	quorum := flag.Int("quorum", 0,
		"minimum valid updates per round; >0 enables quorum-based partial aggregation. "+
			"0 is fail-stop (the first failing or invalid client aborts the run) unless "+
			"-robust-agg, -quarantine-after, -compress or -sample-frac is set, which drop "+
			"failed clients with a quorum of 1")
	robustFlags := flcli.RegisterRobustFlags()
	compressFlags := flcli.RegisterCompressFlags()
	sampleFlags := flcli.RegisterSampleFlags()
	precisionFlag := flcli.RegisterPrecisionFlag()
	flag.Parse()

	p, scale, err := flcli.ParseDataset(*dataset, *scaleName)
	if err != nil {
		return err
	}
	prec, err := flcli.ApplyPrecisionFlag(*precisionFlag)
	if err != nil {
		return err
	}
	if err := sampleFlags.Validate(); err != nil {
		return err
	}
	reg, stopTelemetry, err := flcli.StartTelemetry(*metricsAddr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	fmt.Printf("training %s on %s (%s): %d clients, %d rounds, alpha=%g, precision=%s\n",
		map[bool]string{true: "CIP", false: "legacy (no defense)"}[*alpha > 0],
		p, scale, *clients, *rounds, *alpha, prec)

	var spec *experiments.CheckpointSpec
	if *ckptPath != "" {
		spec = &experiments.CheckpointSpec{
			Path:    *ckptPath,
			Every:   *ckptEvery,
			Resume:  *resume,
			Stop:    flcli.ShutdownSignal(),
			Metrics: checkpoint.NewMetrics(reg),
		}
	}
	robustAgg, reputation, err := robustFlags.Build(0)
	if err != nil {
		return err
	}
	bank, err := compressFlags.Bank()
	if err != nil {
		return err
	}
	var policy *fl.RoundPolicy
	if robustAgg != nil || reputation != nil || *quorum > 0 || bank != nil || *sampleFlags.Frac > 0 {
		policy = &fl.RoundPolicy{MinQuorum: *quorum, Robust: robustAgg, Reputation: reputation,
			Compress: bank, SampleFraction: *sampleFlags.Frac, SampleSeed: *sampleFlags.Seed}
		if *sampleFlags.Frac > 0 && *sampleFlags.Frac < 1 {
			fmt.Printf("client sampling: %.0f%% of the roster per round\n", 100**sampleFlags.Frac)
		}
		if robustAgg != nil {
			fmt.Printf("robust aggregation: %s\n", robustAgg.Name())
		}
		if bank != nil {
			fmt.Printf("update compression: %s (error-feedback residuals ride the checkpoint)\n",
				bank.Cfg.Mode)
		}
	}
	a, err := experiments.TrainArtifact(p, scale, *seed, *clients, *rounds, *alpha, reg, spec, policy)
	if errors.Is(err, fl.ErrStopped) {
		fmt.Printf("stopped at a round boundary; snapshot saved to %s — rerun with -resume to continue\n",
			*ckptPath)
		return nil
	}
	if err != nil {
		return err
	}
	d, err := a.Data()
	if err != nil {
		return err
	}
	net, err := a.Net(true)
	if err != nil {
		return err
	}
	fmt.Printf("train accuracy: %.3f\n", fl.Evaluate(net, d.Train, 64))
	fmt.Printf("test accuracy:  %.3f\n", fl.Evaluate(net, d.Test, 64))
	if err := a.Save(*out); err != nil {
		return err
	}
	fmt.Printf("saved artifact to %s\n", *out)
	return nil
}
