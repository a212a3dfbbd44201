package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

// smoke shrinks every workload so the whole benchmark runs in seconds:
// API drift then breaks a tier-1 test, not the benchmark at review time.
func smoke() sizes {
	return sizes{
		imgHW: 8, imgClasses: 10, vggPerClient: 71, vggHeldOut: 64,
		mlpFull: false, mlpPerClient: 284, mlpHeldOut: 128, mlpMinAcc: 0, vggMinMember: 0,
		auditN: 32, dim: 4096, topKFrac: 0.01,
		warmCIP: 1, warmFlat: 2, warmTree: 2, treePrefix: 3, // seconds 0: minRounds timed rounds
		auditVGG: 1, auditMLP: 1,
		setupCIP: 2, setupFed: 2, minRounds: 2,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// cat is the catalogue under test: the repository's own BENCHMARK.json.
var cat = func() *catalog {
	c, err := loadCatalog(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		panic(err)
	}
	return c
}()

// TestCatalogContract holds BENCHMARK.json to the driver's schema limits, so
// a catalogue the driver would refuse fails a tier-1 test first.
func TestCatalogContract(t *testing.T) {
	seen := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's charset", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range cat.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(append([]metricDef{}, cat.EndToEnd...), cat.PerLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	var setup *metricDef
	for i, d := range cat.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &cat.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, d := range cat.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %v", d.Name, d.Bound)
		}
	}
	for _, d := range cat.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	for _, d := range timingBounds {
		if !seen[d.Name] {
			t.Errorf("timing %s is judged by -compare but missing from the catalogue", d.Name)
		}
	}

	if got, want := strings.Join(cat.Command, " "), "go run ./benchmark"; got != want {
		t.Errorf("command = %q, want %q", got, want)
	}
	if len(cat.Paths) != 1 || cat.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", cat.Paths)
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", cat.RunSeconds)
	}
	// 4 + 22 runs per workload, plus set-up and two builds, in 3420 s.
	if runs := 4 + 22*len(cat.Workloads); float64(runs)*(float64(cat.RunSeconds)+12) > 3420-240 {
		t.Errorf("%d runs of %d s (+12 s of set-up and checks each) do not fit the driver's 3420 s", runs, cat.RunSeconds)
	}
	if want := []string{wlCIPVGG, wlCIPMLP, wlFedFlat, wlFedTree}; !reflect.DeepEqual(cat.workloadNames(), want) {
		t.Errorf("catalogue workloads %v, the program runs %v", cat.workloadNames(), want)
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at smoke
// size: every check passes, every end-to-end metric is there and non-zero,
// every per-layer metric has a row in the driver's line, and the bypass
// predictions hold in the traced output.
func TestWorkloadsSmoke(t *testing.T) {
	zero := map[string][]string{
		wlCIPVGG:  {"wire.bytes_per_update", "compress.topk_s_per_update", "tensor.narrow_widen_s_per_round"},
		wlCIPMLP:  {"tensor.im2col_s_per_round", "tensor.col2im_s_per_round", "nn.conv_fwd_s_per_round", "nn.maxpool_s_per_round"},
		wlFedFlat: {"compress.topk_s_per_update", "compress.decode_s_per_update", "compress.ratio", "robust.aggregate_s_per_round", "robust.sketch_add_s", "robust.sketch_merge_s", "robust.sketch_exact_rounds", "wire.encode_partial_s", "wire.decode_partial_s", "transport.leaf_forward_s_per_round", "nn.dense_fwd_s_per_round"},
		wlFedTree: {"nn.conv_fwd_s_per_round", "core.step1_s_per_round", "attacks.audit_queries_per_s"},
	}
	positive := map[string][]string{
		wlCIPVGG:  {"tensor.im2col_s_per_round", "tensor.col2im_s_per_round", "nn.conv_fwd_s_per_round", "nn.conv_bwd_s_per_round", "nn.dense_fwd_s_per_round", "nn.relu_s_per_round", "nn.maxpool_s_per_round", "nn.loss_s_per_round", "nn.optimizer_s_per_round", "nn.flatten_s_per_round", "core.step1_s_per_round", "core.step2_s_per_round", "core.blend_s_per_round", "core.calibration_s_per_round", "attacks.audit_queries_per_s", "attacks.obmalt_s", "attacks.evaluate_s", "datasets.generate_s", "fl.client_train_max_s_per_round", "tensor.gemm_gflops", "checkpoint.save_s", "checkpoint.bytes", "runtime.alloc_mb_per_round", "runtime.mallocs_per_round"},
		wlCIPMLP:  {"tensor.narrow_widen_s_per_round", "nn.dense_fwd_s_per_round", "nn.dense_bwd_s_per_round", "nn.optimizer_s_per_round", "core.step2_s_per_round", "attacks.audit_queries_per_s"},
		wlFedFlat: {"wire.bytes_per_update", "wire.encode_round_s", "wire.decode_round_s", "wire.encode_update_s", "wire.decode_update_s", "wire.tx_bytes_per_round", "wire.rx_bytes_per_round", "fl.validate_s_per_update", "fl.fold_s_per_update", "fl.finalize_s_per_round", "transport.handshake_s", "transport.conn_read_wait_s_per_round", "transport.conn_write_s_per_round", "checkpoint.save_s", "runtime.goroutines_peak"},
		wlFedTree: {"compress.topk_s_per_update", "compress.decode_s_per_update", "compress.ratio", "robust.aggregate_s_per_round", "robust.sketch_add_s", "robust.sketch_merge_s", "robust.sketch_exact_rounds", "wire.encode_partial_s", "wire.decode_partial_s", "transport.leaf_forward_s_per_round", "wire.bytes_per_update"},
	}
	for _, wl := range cat.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if traced {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: wl.Name, seed: 3, seconds: 0, trace: traced, outDir: t.TempDir(), sz: smoke()}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				line, err := driverLine(cat, res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				inCatalog := map[string]bool{}
				for _, d := range append(append([]metricDef{}, cat.EndToEnd...), cat.PerLayer...) {
					inCatalog[d.Name] = true
				}
				for name := range res.Metrics {
					if !inCatalog[name] {
						t.Errorf("run emits %s, which BENCHMARK.json does not list", name)
					}
				}
				defs := cat.EndToEnd
				if traced {
					defs = cat.PerLayer
				}
				if !out.Correct || len(out.Metrics) != len(defs) {
					t.Fatalf("driver line: correct=%v, %d metrics, want %d", out.Correct, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("metric %s missing from the driver line or without its unit %q", d.Name, d.Unit)
						continue
					}
					if math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, *m.Value)
					}
					if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, *m.Value)
					}
				}
				if !traced {
					return
				}
				for _, n := range zero[wl.Name] {
					if v := res.Metrics[n]; v != 0 {
						t.Errorf("%s = %v on %s, which bypasses that layer", n, v, wl.Name)
					}
				}
				for _, n := range positive[wl.Name] {
					if v := res.Metrics[n]; !(v > 0) {
						t.Errorf("%s = %v on %s, which exercises that layer", n, v, wl.Name)
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.Name+".json")); err != nil {
					t.Errorf("trace file: %v", err)
				}
			})
		}
	}
}

// TestSmokeRepeatsExactly: one seed, one answer — the gauges of two runs
// agree to the last bit, traced or not.
func TestSmokeRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve more smoke runs; TestWorkloadsSmoke covers the paths")
	}
	for _, wl := range cat.Workloads {
		var first map[string]string
		for _, traced := range []bool{false, true, false} {
			res, err := runWorkload(runConfig{workload: wl.Name, seed: 5, trace: traced, outDir: t.TempDir(), sz: smoke()})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Gauges
				continue
			}
			for k, v := range first {
				if res.Gauges[k] != v {
					t.Errorf("%s: gauge %s = %s, first run had %s (traced=%v)", wl.Name, k, res.Gauges[k], v, traced)
				}
			}
		}
	}
}

// TestTracedClientBitIdentical pins the traced client's step-by-step
// replica of TrainLocal to core.Client's own: same update, bit for bit, on
// round 0 and again on round 1 (momentum, rng position and t all carried).
func TestTracedClientBitIdentical(t *testing.T) {
	for _, spec := range []cipSpec{{wlCIPVGG, model.VGG, tensor.F64}, {wlCIPMLP, model.MLP, tensor.F32}} {
		core.SetTrainingPrecision(spec.precision)
		plain, err := buildCIP(spec, 9, smoke(), nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := buildCIP(spec, 9, smoke(), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		global := plain.srv.Global()
		for round := 0; round < 2; round++ {
			want, err := plain.clients[0].TrainLocal(round, global)
			if err != nil {
				t.Fatal(err)
			}
			got, err := traced.clients[0].TrainLocal(round, global)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got.Params, want.Params) || got.NumSamples != want.NumSamples ||
				math.Float64bits(got.TrainLoss) != math.Float64bits(want.TrainLoss) {
				t.Errorf("%s round %d: traced client's update differs from core.Client.TrainLocal", spec.name, round)
			}
			global = want.Params
		}
	}
	core.SetTrainingPrecision(tensor.F64)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must be refused")
	}
	xs = append(xs, 99)
	if v, ok := percentile(xs, 90); !ok || v != 89 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89 with ten samples beyond", v, ok)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(path, metric string, vs []float64, digest string) {
		rs := resultSet{Schema: 1}
		for i, v := range vs {
			res := newRunResult()
			for _, d := range studied(cat) {
				res.set(d.Name, 1, 1)
			}
			res.set(metric, v, 16)
			res.gauge("param_digest_after_warmup", digest)
			rs.Runs = append(rs.Runs, runRecord{wlCIPVGG, int64(i), false, res})
		}
		raw, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	base, near, far, wide, other, timing := filepath.Join(dir, "a"), filepath.Join(dir, "b"),
		filepath.Join(dir, "c"), filepath.Join(dir, "d"), filepath.Join(dir, "e"), filepath.Join(dir, "f")
	mk(base, "alloc_mb_per_update", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, "x")
	mk(near, "alloc_mb_per_update", []float64{1.03, 1.02, 1.04, 1.03, 1.03}, "x")
	mk(far, "alloc_mb_per_update", []float64{1.50, 1.51, 1.49, 1.50, 1.52}, "x")
	mk(wide, "alloc_mb_per_update", []float64{0.60, 1.40, 1.00, 0.65, 1.45}, "x")
	mk(other, "alloc_mb_per_update", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, "y")
	// A timing too noisy to judge is said to be so, and decides nothing.
	mk(timing, "round_p50_s", []float64{0.60, 1.40, 1.00, 0.65, 1.45}, "x")
	for _, tc := range []struct {
		b     string
		agree bool
		want  string
	}{{near, true, " agree"}, {far, false, "disagree"}, {wide, false, "unresolved"}, {other, false, "DIFFERS"}, {timing, true, "unresolved"}} {
		var out bytes.Buffer
		agree, err := compareSets(&out, cat, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if agree != tc.agree || !strings.Contains(out.String(), tc.want) {
			t.Errorf("compare: agree=%v, want %v and %q in:\n%s", agree, tc.agree, tc.want, out.String())
		}
	}
}
