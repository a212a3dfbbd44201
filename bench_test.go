package cip_test

// Benchmarks that regenerate the paper's evaluation artifacts, one per
// table and figure (DESIGN.md §4 maps ids to artifacts). Each benchmark
// iteration runs the full experiment at Quick scale; `go test -bench=.`
// therefore reproduces the entire evaluation. The printed tables land in
// experiments_quick.txt via cmd/cipbench; here the Rows are only sanity-
// checked so the benchmark numbers measure experiment cost.

import (
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Scale: datasets.Quick, Seed: 1}
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Registry[id](cfg)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkFig1LossDistribution regenerates Fig. 1 (member vs non-member
// loss distributions before/after CIP).
func BenchmarkFig1LossDistribution(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkTable1InternalSetup regenerates Table I (internal-adversary
// setup grid: clients × architectures).
func BenchmarkTable1InternalSetup(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2ExternalSetup regenerates Table II (external-adversary
// per-dataset setup).
func BenchmarkTable2ExternalSetup(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig4ClientsSweep regenerates Fig. 4 (defense comparison across
// client counts under internal adversaries).
func BenchmarkFig4ClientsSweep(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5ModelEpsSweep regenerates Fig. 5 (architectures × DP ε).
func BenchmarkFig5ModelEpsSweep(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6DefenseComparison regenerates Fig. 6 (external adversary,
// CH-MNIST, all five baseline defenses across privacy budgets).
func BenchmarkFig6DefenseComparison(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable3Heterogeneity regenerates Table III (CIP vs no defense vs
// local training across non-iid..iid distributions).
func BenchmarkTable3Heterogeneity(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig7EMD regenerates Fig. 7 (EMD of client training-loss
// trajectories vs heterogeneity).
func BenchmarkFig7EMD(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8AttackSweep regenerates Fig. 8 (five external attacks vs α
// per dataset).
func BenchmarkFig8AttackSweep(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable4AttackPRF regenerates Table IV (precision/recall/F1 at
// α=0.7).
func BenchmarkTable4AttackPRF(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5AccuracyVsAlpha regenerates Table V (test accuracy vs α).
func BenchmarkTable5AccuracyVsAlpha(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6AdaptiveProbe regenerates Table VI (adaptive
// Optimization-1 probe attack).
func BenchmarkTable6AdaptiveProbe(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7ActiveAlteration regenerates Table VII (adaptive
// Optimization-2 active alteration attack).
func BenchmarkTable7ActiveAlteration(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8SeedKnowledge regenerates Table VIII (adaptive
// Knowledge-1 public-seed attack vs SSIM).
func BenchmarkTable8SeedKnowledge(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkTable9PartialData regenerates Table IX (adaptive Knowledge-2
// partial-training-data attack).
func BenchmarkTable9PartialData(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkKnowledge3SubstituteT regenerates the §V-D Knowledge-3
// substitute-perturbation experiment.
func BenchmarkKnowledge3SubstituteT(b *testing.B) { benchExperiment(b, "k3") }

// BenchmarkTable10InverseMI regenerates Table X (adaptive Knowledge-4
// inverse membership inference attack).
func BenchmarkTable10InverseMI(b *testing.B) { benchExperiment(b, "table10") }

// BenchmarkTable11Overhead regenerates Table XI (parameter and
// convergence overhead of CIP).
func BenchmarkTable11Overhead(b *testing.B) { benchExperiment(b, "table11") }

// BenchmarkAblation runs the design-choice ablation (dual channel,
// Step I, λ_m) that DESIGN.md §5 calls out.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkTheorem1 empirically validates the §III-C adversarial-advantage
// bound on a trained CIP model.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "theorem1") }
