// Command benchmark is the repository's benchmark: four workloads of fixed
// work, three end-to-end metrics measured with tracing off, and a traced
// run that splits each workload's round by layer. See README.md beside this
// file for the glossary and the reasoning behind every size.
//
//	go run ./benchmark                         all workloads, each in its own subprocess
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                           one run; last stdout line is the result JSON
//	go run ./benchmark -runs 10 -sets a.json,b.json
//	                                           alternate full runs into result sets
//	go run ./benchmark -compare a.json b.json  judge two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	sz       sizes
}

// runResult is what one run of one workload yields.
type runResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // per-metric sample counts
	Gauges    map[string]string  `json:"gauges"`  // values that must repeat exactly at one seed
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

func newRunResult() *runResult {
	return &runResult{Metrics: map[string]float64{}, Samples: map[string]int{}, Gauges: map[string]string{}}
}

func (r *runResult) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

func (r *runResult) gauge(name, v string) { r.Gauges[name] = v }

// timedSection is what both kinds of workload measure around their timed
// rounds, tracing on or off: the rounds' wall times, CPU seconds per update
// round by round, the heap counters at the two ends, and the live heap
// right after the last round, the workload's state still resident.
type timedSection struct {
	setups       []float64
	rounds, cpus []float64
	mem0, mem1   memCounters
	liveHeap     float64 // MB
}

// setMeasured fills the end-to-end metrics of a run and, as measured, its
// three timings and its memory footprint. Those are per-layer in the
// catalogue (README "Noise"), so the driver reads them off the traced run;
// the full mode prints and studies the ones taken with tracing off.
func (r *runResult) setMeasured(ts *timedSection, rssMB float64) {
	n := len(ts.rounds)
	updates := float64(n * nClients)
	r.set("setup_s", median(ts.setups), len(ts.setups))
	r.set("alloc_mb_per_update", float64(ts.mem1.allocBytes-ts.mem0.allocBytes)/1e6/updates, n)
	r.set("mallocs_per_update", float64(ts.mem1.mallocs-ts.mem0.mallocs)/updates, n)
	r.set("peak_rss_mb", rssMB, 1)
	r.set("runtime.heap_live_mb", ts.liveHeap, 1)
	r.set("round_p50_s", median(ts.rounds), n)
	r.set("updates_per_s", updates/sum(ts.rounds), n)
	r.set("cpu_s_per_update", median(ts.cpus), n)
}

// check records one output check; a failed check is a failed operation.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs one workload in this process. GOMAXPROCS is pinned to
// the client count: one core per closed-loop client is the shape every
// number in this benchmark is taken at.
func runWorkload(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(nClients)
	res, err := runNamed(cfg)
	if err == nil {
		res.set("host.mem_probe_ms", hostProbeMS(), 5)
	}
	return res, err
}

func runNamed(cfg runConfig) (*runResult, error) {
	switch cfg.workload {
	case wlCIPVGG:
		return runCIP(cfg, cipSpec{cfg.workload, model.VGG, tensor.F64})
	case wlCIPMLP:
		return runCIP(cfg, cipSpec{cfg.workload, model.MLP, tensor.F32})
	case wlFedFlat:
		return runFed(cfg, false)
	case wlFedTree:
		return runFed(cfg, true)
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", cfg.workload)
}

// driverLine is the result object the driver reads off the last stdout
// line: every end-to-end metric untraced, every per-layer metric traced.
func driverLine(cat *catalog, res *runResult, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{res.Metrics[d.Name], d.Unit}
	}
	return json.Marshal(out)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print the driver's result line")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs     = flag.Float64("seconds", 0, "sizes the fixed work of a run: rounds = the workload's rate x seconds (default: run_seconds)")
		trace    = flag.Int("trace", 0, "1 runs with the decorators installed and reports the per-layer metrics")
		catPath  = flag.String("catalog", "BENCHMARK.json", "the benchmark's catalogue of workloads and metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files and the checkpoint replay")
		runs     = flag.Int("runs", 1, "full mode: untraced runs per workload and result set, seeds seed..seed+runs-1")
		sets     = flag.String("sets", "", "full mode: comma-separated result-set files to write, filled by alternating runs")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	flag.Parse()
	cat, err := loadCatalog(*catPath)
	if err != nil {
		fatal(err)
	}
	if *secs <= 0 {
		*secs = float64(cat.RunSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		agree, err := compareSets(os.Stdout, cat, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !agree {
			os.Exit(1)
		}
	case *workload != "":
		res, err := runWorkload(runConfig{
			workload: *workload, seed: *seed, seconds: *secs, trace: *trace != 0, outDir: *outDir, sz: full(),
		})
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, cat, *workload, *trace != 0, res)
		if full, err := json.Marshal(res); err == nil {
			fmt.Printf("run %s\n", full)
		}
		line, err := driverLine(cat, res, *trace != 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		var files []string
		if *sets != "" {
			files = strings.Split(*sets, ",")
		}
		ok, err := fullReport(os.Stdout, cat, *catPath, *seed, *secs, *runs, files, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
