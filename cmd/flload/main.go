// Command flload is the million-client-scale load generator: it hosts a
// coordinator and 10⁵+ lightweight in-process clients over in-memory
// pipes (no sockets, no per-connection file descriptors) and reports
// round throughput, tail latency, and memory as a json report.
//
// Three phases, each skippable:
//
//	flat — one streaming-fold coordinator over the full roster
//	tree — the same roster sharded across -leaves leaf aggregators
//	       forwarding weighted partials to a root
//	gate — a streaming-vs-buffered pair at -gate-clients, measuring the
//	       peak-heap reduction the streaming fold buys; the buffered run
//	       attaches a round observer, so every round keeps its update
//	       column
//
// Usage:
//
//	flload -out load.json
//	flload -clients 100000 -dim 1024 -rounds 5 -phases flat,gate
//	flload -phases gate   # the coordinator-memory check alone
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/cip-fl/cip/internal/flcli"
)

// minGateHeapReduction is the coordinator-memory regression line the gate
// phase holds: the buffered baseline's peak heap must be at least this
// many times the streaming fold's, or the O(roster × params) column has
// crept into rounds that keep none.
const minGateHeapReduction = 5

type loadReport struct {
	Note       string `json:"note,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Flat and Tree are the full-roster streaming runs; GateStreaming and
	// GateBuffered are the paired memory comparison at the gate size.
	Flat              *ScaleResult `json:"flat,omitempty"`
	Tree              *ScaleResult `json:"tree,omitempty"`
	GateStreaming     *ScaleResult `json:"gate_streaming,omitempty"`
	GateBuffered      *ScaleResult `json:"gate_buffered,omitempty"`
	GateHeapReduction float64      `json:"gate_heap_reduction,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flload:", err)
		os.Exit(1)
	}
}

func describe(tag string, r *ScaleResult) {
	fmt.Fprintf(os.Stderr,
		"%-14s %7d clients × %5d params, %d rounds: %6.2f rounds/s, p50 %7.1f ms, p99 %7.1f ms, peak heap %6.1f MiB, rss hwm %6.1f MiB\n",
		tag, r.Clients, r.Dim, r.Rounds, r.RoundsPerSec, r.P50RoundMs, r.P99RoundMs,
		float64(r.PeakHeapBytes)/(1<<20), float64(r.PeakRSSBytes)/(1<<20))
}

func run() error {
	clients := flag.Int("clients", 100000, "roster size of the flat and tree phases")
	dim := flag.Int("dim", 1024, "parameter-vector length (one dense update is 8·dim bytes)")
	rounds := flag.Int("rounds", 5, "communication rounds per phase")
	leavesN := flag.Int("leaves", 4, "leaf aggregators in the tree phase")
	interiorsN := flag.Int("interiors", 0,
		"interior aggregators between root and leaves in the tree phase (0 = depth-2 tree)")
	window := flag.Int("window", 0, "streaming admission window (0 keeps the transport default)")
	readBuf := flag.Int("readbuf", 256, "per-connection read-buffer bytes (0 keeps bufio's 4 KiB)")
	gateClients := flag.Int("gate-clients", 4000, "roster size of the gate phase")
	gateDim := flag.Int("gate-dim", 32768, "parameter-vector length of the gate phase")
	gateRounds := flag.Int("gate-rounds", 2, "rounds per gate run")
	phases := flag.String("phases", "flat,tree,gate", "comma-separated phases to run")
	out := flag.String("out", "", "write the json report here (default stdout)")
	note := flag.String("note", "", "free-form note embedded in the report")
	treeFlags := flcli.RegisterTreePolicyFlags()
	flag.Parse()

	if err := treeFlags.Validate("flat"); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, p := range strings.Split(*phases, ",") {
		switch p = strings.TrimSpace(p); p {
		case "flat", "tree", "gate":
			want[p] = true
		case "":
		default:
			return fmt.Errorf("unknown phase %q (want flat, tree, gate)", p)
		}
	}

	rep := loadReport{Note: *note, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var err error
	if want["flat"] {
		cfg := ScaleConfig{Clients: *clients, Dim: *dim, Rounds: *rounds,
			Window: *window, ReadBuf: *readBuf}
		if rep.Flat, err = RunScaleLoad(cfg); err != nil {
			return fmt.Errorf("flat phase: %w", err)
		}
		describe("flat", rep.Flat)
	}
	if want["tree"] {
		cfg := ScaleConfig{Clients: *clients, Dim: *dim, Rounds: *rounds,
			Window: *window, ReadBuf: *readBuf, Leaves: *leavesN, Interiors: *interiorsN,
			SubtreeQuorum: *treeFlags.SubtreeQuorum, CoverageFloor: *treeFlags.CoverageFloor}
		if rep.Tree, err = RunScaleLoad(cfg); err != nil {
			return fmt.Errorf("tree phase: %w", err)
		}
		tag := fmt.Sprintf("tree(%d)", *leavesN)
		if *interiorsN > 0 {
			tag = fmt.Sprintf("tree(%d/%d)", *interiorsN, *leavesN)
		}
		describe(tag, rep.Tree)
	}
	if want["gate"] {
		rep.GateStreaming, rep.GateBuffered, rep.GateHeapReduction, err =
			ScaleGate(*gateClients, *gateDim, *gateRounds)
		if err != nil {
			return fmt.Errorf("gate phase: %w", err)
		}
		describe("gate:stream", rep.GateStreaming)
		describe("gate:buffered", rep.GateBuffered)
		fmt.Fprintf(os.Stderr, "gate: buffered peak heap is %.1fx the streaming fold's (need ≥%dx)\n",
			rep.GateHeapReduction, minGateHeapReduction)
		if rep.GateHeapReduction < minGateHeapReduction {
			return fmt.Errorf("gate phase: buffered peak heap is only %.1fx the streaming fold's, need ≥%dx",
				rep.GateHeapReduction, minGateHeapReduction)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(*out, raw, 0o644)
}
