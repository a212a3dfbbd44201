// Command flserver runs the FedAvg coordination server of a multi-process
// CIP federation over TCP: it waits for -clients connections, runs -rounds
// communication rounds, and writes the final global model artifact.
// Clients connect with cmd/flclient.
//
// Usage (three terminals):
//
//	flserver -addr :9000 -clients 2 -rounds 20 -dataset chmnist -out global.gob
//	flclient -addr localhost:9000 -id 0 -of 2 -dataset chmnist -alpha 0.9
//	flclient -addr localhost:9000 -id 1 -of 2 -dataset chmnist -alpha 0.9
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/flcli"
	"github.com/cip-fl/cip/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":9000", "listen address")
	clients := flag.Int("clients", 2, "number of clients to wait for")
	rounds := flag.Int("rounds", 20, "communication rounds")
	dataset := flag.String("dataset", "chmnist", "preset (determines the model shape)")
	scaleName := flag.String("preset", "quick", "scale: quick or full")
	seed := flag.Int64("seed", 1, "model-initialization seed (must match clients)")
	out := flag.String("out", "global.gob", "write the final global parameters here")
	quorum := flag.Int("quorum", 0,
		"minimum clients per round; >0 enables fault-tolerant partial aggregation, 0 is fail-stop")
	roundTimeout := flag.Duration("round-timeout", 0,
		"per-round client deadline (send+train+receive); 0 disables deadlines")
	acceptWindow := flag.Duration("accept-window", 0,
		"how long to wait for the full roster before starting with ≥quorum clients; 0 waits forever")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars, and /debug/pprof on this address; empty disables telemetry")
	ckptPath := flag.String("checkpoint", "",
		"write durable federation snapshots here; empty disables checkpointing")
	ckptEvery := flag.Int("checkpoint-every", 1, "snapshot cadence in rounds")
	resume := flag.Bool("resume", false,
		"resume from the snapshot at -checkpoint (fresh start if none exists)")
	maxUpdateNorm := flag.Float64("max-update-norm", 0,
		"reject client updates whose L2 norm exceeds this; 0 disables the bound")
	role := flag.String("role", "flat",
		"topology role: flat (own the whole client roster), leaf (aggregate a client shard and "+
			"forward one weighted partial per round to -parent), interior (aggregate partials "+
			"from child nodes and forward one partial to -parent), or root (accept one partial "+
			"per child and own the global model)")
	leafID := flag.Int("leaf-id", 0, "this node's ID in its parent's roster (with -role leaf or interior)")
	leaves := flag.Int("leaves", 0, "child roster size (with -role root or interior; 0 means -clients)")
	robustFlags := flcli.RegisterRobustFlags()
	sampleFlags := flcli.RegisterSampleFlags()
	treeFlags := flcli.RegisterTreeFlags()
	flag.Parse()

	if err := sampleFlags.Validate(); err != nil {
		return err
	}
	if err := treeFlags.Validate(*role); err != nil {
		return err
	}
	p, scale, err := flcli.ParseDataset(*dataset, *scaleName)
	if err != nil {
		return err
	}
	d, err := datasets.Load(p, scale, *seed)
	if err != nil {
		return err
	}
	arch := flcli.ArchFor(p)
	dual := core.NewDualChannelModel(rand.New(rand.NewSource(*seed+1)), arch,
		d.Train.In, d.Train.NumClasses)

	reg, stopTelemetry, err := flcli.StartTelemetry(*metricsAddr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	robustAgg, reputation, err := robustFlags.Build(*maxUpdateNorm)
	if err != nil {
		return err
	}
	coord := &transport.Coordinator{
		NumClients:     *clients,
		Rounds:         *rounds,
		Initial:        nn.FlattenParams(dual.Params()),
		MinQuorum:      *quorum,
		RoundTimeout:   *roundTimeout,
		AcceptWindow:   *acceptWindow,
		MaxUpdateNorm:  *maxUpdateNorm,
		Robust:         robustAgg,
		Reputation:     reputation,
		SampleFraction: *sampleFlags.Frac,
		SampleSeed:     *sampleFlags.Seed,
		Metrics:        transport.NewMetrics(reg),
		RoundMetrics:   fl.NewMetrics(reg),
	}
	switch *role {
	case "flat":
	case "root":
		// The root of an aggregation tree: every roster slot is a child
		// aggregator sending one weighted partial per round, and killed
		// children may rejoin at a round boundary.
		coord.AcceptPartials = true
		coord.AcceptRejoins = true
		if *leaves > 0 {
			coord.NumClients = *leaves
		}
		if *treeFlags.SubtreeQuorum > 0 {
			coord.MinQuorum = *treeFlags.SubtreeQuorum
		}
		coord.CoverageFloor = *treeFlags.CoverageFloor
	case "leaf", "interior":
		parent := *treeFlags.Parent
		if parent == "" {
			return fmt.Errorf("-role %s requires -parent (the upstream aggregator's address)", *role)
		}
		if *ckptPath != "" {
			return fmt.Errorf("-role %s cannot checkpoint; tree nodes are stateless — checkpoint the root", *role)
		}
		if *role == "interior" {
			coord.AcceptPartials = true
			coord.AcceptRejoins = true
			if *leaves > 0 {
				coord.NumClients = *leaves
			}
			coord.CoverageFloor = *treeFlags.CoverageFloor
		}
		if *treeFlags.SubtreeQuorum > 0 {
			coord.MinQuorum = *treeFlags.SubtreeQuorum
		}
		leaf := &transport.Leaf{
			ID:         *leafID,
			Root:       parent,
			AltParents: treeFlags.AltList(),
			Local:      *coord,
			Retry: transport.RetryConfig{
				MaxAttempts: 10,
				Stop:        flcli.ShutdownSignal(),
			},
		}
		what := "shard clients"
		if *role == "interior" {
			what = "child aggregators"
		}
		fmt.Printf("%s %d: waiting for %d %s, forwarding partials to %s\n",
			*role, *leafID, coord.NumClients, what, parent)
		global, err := leaf.ListenAndRun(*addr, func(a string) {
			fmt.Printf("listening on %s\n", a)
		})
		if err != nil {
			return err
		}
		// Only save when -out was given explicitly: the root owns the
		// canonical global, and co-located leaves left on the default
		// path would race each other's atomic rename.
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if outSet {
			if err := flcli.SaveGlobal(*out, p, scale, *seed, arch, global); err != nil {
				return err
			}
			fmt.Printf("tree federation complete; final root broadcast saved to %s\n", *out)
		} else {
			fmt.Println("tree federation complete (the root saves the global; pass -out for a leaf-side copy)")
		}
		return nil
	default:
		return fmt.Errorf("unknown -role %q (want flat, leaf, interior, or root)", *role)
	}
	if robustAgg != nil {
		fmt.Printf("robust aggregation: %s\n", robustAgg.Name())
	}
	if *ckptPath != "" {
		coord.Checkpoint = &checkpoint.Manager{Path: *ckptPath, Metrics: checkpoint.NewMetrics(reg)}
		coord.CheckpointEvery = *ckptEvery
		coord.Stop = flcli.ShutdownSignal()
		if *resume {
			snap, err := coord.Checkpoint.Load()
			switch {
			case err == nil:
				coord.Restore = snap
				fmt.Printf("resuming from %s at round %d\n", *ckptPath, snap.State.NextRound)
			case errors.Is(err, os.ErrNotExist):
				fmt.Printf("no snapshot at %s; starting fresh\n", *ckptPath)
			default:
				return err
			}
		}
	}
	if *quorum > 0 {
		fmt.Printf("waiting for %d clients (quorum %d), %d rounds...\n", *clients, *quorum, *rounds)
	} else {
		fmt.Printf("waiting for %d clients, %d rounds...\n", *clients, *rounds)
	}
	global, err := coord.ListenAndRun(*addr, func(a string) {
		fmt.Printf("listening on %s\n", a)
	})
	if errors.Is(err, fl.ErrStopped) {
		fmt.Printf("stopped at a round boundary; snapshot saved to %s — rerun with -resume to continue\n",
			*ckptPath)
		return nil
	}
	if err != nil {
		return err
	}
	if err := flcli.SaveGlobal(*out, p, scale, *seed, arch, global); err != nil {
		return err
	}
	fmt.Printf("federation complete; global model saved to %s\n", *out)
	return nil
}
