package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/cip-fl/cip/internal/tensor"
)

// hostInfo is attached to every result set: numbers without their host
// are not comparable.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // what each workload process pins
	GOARCH     string  `json:"goarch"`
	GOOS       string  `json:"goos"`
	FMAKernel  bool    `json:"fma_kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
}

type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Traced   bool       `json:"traced"`
	Result   *runResult `json:"result"`
}

type resultSet struct {
	Schema int         `json:"schema"`
	Host   hostInfo    `json:"host"`
	Runs   []runRecord `json:"runs"`
}

func thisHost(seed int64, secs float64) hostInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: nClients, GOARCH: runtime.GOARCH, GOOS: runtime.GOOS,
		FMAKernel: tensor.HasFMAKernel(), GoVersion: runtime.Version(), Commit: commit,
		Seed: seed, RunSeconds: secs,
	}
}

// printRun lists one run's metrics by name with unit and sample count, in
// catalogue order: the end-to-end metrics of an untraced run and, beside
// them, its timings; every per-layer metric of a traced run.
func printRun(w io.Writer, cat *catalog, workload string, traced bool, res *runResult) {
	mode := "tracing off"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s)\n", workload, mode)
	for _, d := range append(append([]metricDef{}, cat.EndToEnd...), cat.PerLayer...) {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-38s %14.6g %-8s n=%d\n", d.Name, v, d.Unit, res.Samples[d.Name])
		}
	}
	keys := make([]string, 0, len(res.Gauges))
	for k := range res.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-38s %s\n", k, res.Gauges[k])
	}
	fmt.Fprintf(w, "  %-38s %d\n  %-38s %d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
}

// runChild re-executes this binary for one workload, so its peak RSS and
// heap counters are that workload's own.
func runChild(catPath, workload string, seed int64, secs float64, traced bool, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-catalog", catPath, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", t, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "run "); ok {
			var res runResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("workload %s: parsing result: %w", workload, err)
			}
			return &res, nil // a failed check exits non-zero but still reports
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, runErr)
	}
	return nil, fmt.Errorf("workload %s printed no result", workload)
}

// fullReport runs every workload, each in a fresh subprocess: `runs`
// untraced runs (seeds seed..seed+runs-1) and one traced run per workload
// and result set. With several sets the runs alternate between them, so
// drift on the host lands on both alike.
func fullReport(w io.Writer, cat *catalog, catPath string, seed int64, secs float64, runs int, files []string, outDir string) (bool, error) {
	nSets := max(1, len(files))
	sets := make([]resultSet, nSets)
	for i := range sets {
		sets[i] = resultSet{Schema: 1, Host: thisHost(seed, secs)}
	}
	ok := true
	for i := 0; i < runs; i++ {
		for k := 0; k < nSets; k++ {
			s := (k + i) % nSets // alternate which set goes first
			for _, wl := range cat.Workloads {
				for _, traced := range []bool{false, true} {
					if traced && i > 0 {
						continue
					}
					res, err := runChild(catPath, wl.Name, seed+int64(i), secs, traced, outDir)
					if err != nil {
						return false, err
					}
					sets[s].Runs = append(sets[s].Runs, runRecord{wl.Name, seed + int64(i), traced, res})
					if nSets > 1 {
						fmt.Fprintf(w, "[set %d] ", s)
					}
					printRun(w, cat, wl.Name, traced, res)
					ok = ok && res.Failed == 0
				}
			}
		}
	}
	for s := range sets {
		if nSets > 1 {
			fmt.Fprintf(w, "\n==== set %d ====\n", s)
		}
		summarize(w, cat, &sets[s])
		if s < len(files) {
			raw, err := json.MarshalIndent(&sets[s], "", " ")
			if err != nil {
				return false, err
			}
			if err := os.WriteFile(files[s], append(raw, '\n'), 0o644); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}

// values collects one metric's value from every matching run of a set.
func (rs *resultSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Result.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// studied are the metrics a result set is summarised and compared on: the
// end-to-end metrics with the catalogue's bounds, then the three timings of
// the untraced runs with the issue's.
func studied(cat *catalog) []metricDef {
	return append(append([]metricDef{}, cat.EndToEnd...), timingBounds...)
}

// summarize prints a set's medians and quartiles over its untraced runs
// and the traced run's overhead next to them.
func summarize(w io.Writer, cat *catalog, rs *resultSet) {
	h := rs.Host
	fmt.Fprintf(w, "\nhost: nproc=%d GOMAXPROCS=%d %s/%s fma_kernel=%v %s commit=%s seed=%d run_seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.FMAKernel, h.GoVersion, h.Commit, h.Seed, h.RunSeconds)
	fmt.Fprintf(w, "%-24s %-20s %12s %12s %12s %-6s %s\n", "workload", "metric", "median", "q1", "q3", "unit", "runs")
	for _, wl := range cat.Workloads {
		for _, d := range studied(cat) {
			vs := rs.values(wl.Name, d.Name, false)
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(w, "%-24s %-20s %12.6g %12.6g %12.6g %-6s %d\n", wl.Name, d.Name, q2, q1, q3, d.Unit, len(vs))
		}
		untraced := median(rs.values(wl.Name, "round_p50_s", false))
		if traced := rs.values(wl.Name, "round_p50_s", true); len(traced) > 0 && untraced > 0 {
			fmt.Fprintf(w, "%-24s %-20s %12.6g\n", wl.Name, "trace_overhead_frac", median(traced)/untraced-1)
		}
	}
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareSets judges two result sets against the benchmark's own bounds.
// Per workload and studied metric it prints both medians and quartiles,
// how much worse B's median is than A's, and a verdict: unresolved when
// either set's inter-quartile range is at least the bound (the spread
// hides what the bound is meant to catch), disagree when the medians are
// further apart than the bound, agree otherwise. Gauges and byte counts
// must repeat exactly at equal seeds. It reports whether every end-to-end
// row agrees and every repeat is exact.
func compareSets(w io.Writer, cat *catalog, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	all := true
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Fprintf(w, "%-24s %-20s %11s %11s %11s %11s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "A iqr%", "B iqr%", "B worse%", "bound%", "verdict")
	for _, wl := range cat.Workloads {
		for i, d := range studied(cat) {
			va, vb := a.values(wl.Name, d.Name, false), b.values(wl.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			// setup_s is judged on its medians alone, as the driver does: its
			// spread is printed but exempt.
			verdict := "agree"
			switch {
			case d.Name != "setup_s" && (spreadA >= d.Bound || spreadB >= d.Bound):
				verdict = "unresolved"
			case worse >= d.Bound || -worse >= d.Bound:
				verdict = "disagree"
			}
			// Only the end-to-end rows decide the exit status; the timings
			// carry no bound in the catalogue and are judged for the record.
			if i < len(cat.EndToEnd) {
				all = all && verdict == "agree"
			}
			fmt.Fprintf(w, "%-24s %-20s %11.5g %11.3g %11.5g %11.3g %8.2f %8.2f %+8.2f %6.1f  %s\n",
				wl.Name, d.Name, am, a3-a1, bm, b3-b1, 100*spreadA, 100*spreadB, 100*worse, 100*d.Bound, verdict)
		}
	}

	// Exact repeats: gauges of untraced runs at equal seeds, and the
	// counted per-layer metrics of the traced runs.
	fmt.Fprintf(w, "\nexact repeats (same workload, seed and mode in A and B):\n")
	counted := []string{"wire.bytes_per_update", "wire.tx_bytes_per_round", "wire.rx_bytes_per_round",
		"core.final_train_loss", "core.test_acc", "attacks.mi_acc_without_t", "attacks.mi_acc_with_t", "compress.ratio"}
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Traced != rb.Traced {
				continue
			}
			var diffs []string
			for k, v := range ra.Result.Gauges {
				if rb.Result.Gauges[k] != v {
					diffs = append(diffs, k)
				}
			}
			if ra.Traced {
				for _, k := range counted {
					if ra.Result.Metrics[k] != rb.Result.Metrics[k] {
						diffs = append(diffs, k)
					}
				}
			}
			sort.Strings(diffs)
			verdict := "exact"
			if len(diffs) > 0 {
				verdict = "DIFFERS: " + strings.Join(diffs, ", ")
				all = false
			}
			fmt.Fprintf(w, "  %-24s seed=%d traced=%-5v %s\n", ra.Workload, ra.Seed, ra.Traced, verdict)
			break
		}
	}
	return all, nil
}
