// Package attacks implements the membership inference attacks the paper
// evaluates CIP against:
//
// External (white-box access to the final global model, §IV-B):
//   - Ob-Label — label-only attack (Yeom et al.): member iff classified
//     correctly.
//   - Ob-MALT — Bayes-optimal loss-threshold attack (Sablayrolles et al.).
//   - Ob-NN — shadow-model + attack-network attack (Shokri/Salem et al.).
//   - Ob-BlindMI — differential-comparison attack (Hui et al.).
//   - Pb-Bayes — parameter-based white-box attack using gradient features
//     (Leino & Fredrikson).
//
// Internal (malicious server, Nasr et al. S&P'19):
//   - Passive — observes clients' local models over several rounds.
//   - Active — gradient-ascends target samples in the model sent to the
//     victim and watches whether local training undoes the damage.
//
// Adaptive (§V-D, aware of CIP's mechanism): Optimization-1/2 and
// Knowledge-1/2/3/4, implemented in adaptive.go.
package attacks

import (
	"fmt"
	"math"
	"sort"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/metrics"
	"github.com/cip-fl/cip/internal/nn"
)

// Result is the outcome of running an attack on equal member/non-member
// evaluation sets.
type Result struct {
	// Scores holds per-sample membership scores (higher = more member-
	// like), members first, then non-members.
	Scores []float64
	// Labels holds the ground truth aligned with Scores.
	Labels []bool
	// Preds holds the attack's binary membership decisions.
	Preds []bool
	// Counts is the confusion matrix of Preds vs Labels.
	Counts metrics.BinaryCounts
}

// Accuracy returns the attack accuracy (the paper's headline metric).
func (r Result) Accuracy() float64 { return r.Counts.Accuracy() }

// AUC returns the threshold-free ROC-AUC of the attack scores.
func (r Result) AUC() float64 { return metrics.ROCAUC(r.Scores, r.Labels) }

// TPRAtFPR returns the attack's true-positive rate at the given
// false-positive rate — the low-FPR regime Carlini et al. recommend for
// honest MI evaluation.
func (r Result) TPRAtFPR(maxFPR float64) float64 {
	return metrics.TPRAtFPR(r.Scores, r.Labels, maxFPR)
}

// String summarizes the result in Table IV's terms.
func (r Result) String() string {
	return fmt.Sprintf("acc=%.3f auc=%.3f %s", r.Accuracy(), r.AUC(), r.Counts)
}

// newResult assembles a Result from member/non-member scores and a
// decision threshold (predict member when score ≥ threshold).
func newResult(memberScores, nonScores []float64, threshold float64) Result {
	r := Result{}
	for _, s := range memberScores {
		r.Scores = append(r.Scores, s)
		r.Labels = append(r.Labels, true)
	}
	for _, s := range nonScores {
		r.Scores = append(r.Scores, s)
		r.Labels = append(r.Labels, false)
	}
	r.Preds = make([]bool, len(r.Scores))
	for i, s := range r.Scores {
		r.Preds[i] = s >= threshold
		r.Counts.Add(r.Preds[i], r.Labels[i])
	}
	return r
}

// bestThreshold returns the score threshold maximizing attack accuracy —
// the Bayes-optimal decision rule given the evaluation sets, which is how
// threshold attacks are customarily scored (an upper bound favoring the
// attacker, hence conservative for the defense).
func bestThreshold(memberScores, nonScores []float64) float64 {
	all := make([]float64, 0, len(memberScores)+len(nonScores)+1)
	all = append(all, memberScores...)
	all = append(all, nonScores...)
	sort.Float64s(all)
	best := math.Inf(-1)
	bestAcc := -1.0
	try := func(th float64) {
		correct := 0
		for _, s := range memberScores {
			if s >= th {
				correct++
			}
		}
		for _, s := range nonScores {
			if s < th {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(memberScores)+len(nonScores)); acc > bestAcc {
			bestAcc, best = acc, th
		}
	}
	for i, v := range all {
		try(v)
		if i+1 < len(all) {
			try((v + all[i+1]) / 2)
		}
	}
	try(all[len(all)-1] + 1)
	return best
}

// ThresholdResult scores a generic threshold attack with the attacker-
// optimal threshold.
func ThresholdResult(memberScores, nonScores []float64) Result {
	return newResult(memberScores, nonScores, bestThreshold(memberScores, nonScores))
}

// Features bundles the per-sample observables attacks consume.
type Features struct {
	Loss    []float64 // per-sample cross-entropy
	Correct []bool    // argmax == label
	Probs   [][]float64
	MaxProb []float64
	Entropy []float64
}

// ExtractFeatures runs the model over d and collects output-side features.
func ExtractFeatures(net nn.Layer, d *datasets.Dataset, batch int) Features {
	if batch <= 0 {
		batch = 64
	}
	f := Features{}
	for start := 0; start < d.Len(); start += batch {
		end := start + batch
		if end > d.Len() {
			end = d.Len()
		}
		x, y := d.Batch(start, end)
		logits, _ := net.Forward(x, false)
		res := nn.SoftmaxCrossEntropy(logits, y)
		k := logits.Shape[1]
		for i := 0; i < end-start; i++ {
			row := res.Probs.Data[i*k : (i+1)*k]
			p := make([]float64, k)
			copy(p, row)
			f.Probs = append(f.Probs, p)
			f.Loss = append(f.Loss, res.PerSample[i])
			maxP, arg := row[0], 0
			ent := 0.0
			for j, v := range row {
				if v > maxP {
					maxP, arg = v, j
				}
				if v > 1e-12 {
					ent -= v * math.Log(v)
				}
			}
			f.MaxProb = append(f.MaxProb, maxP)
			f.Entropy = append(f.Entropy, ent)
			f.Correct = append(f.Correct, arg == y[i])
		}
	}
	return f
}

// sortedTopK returns the k largest softmax probabilities in descending
// order — Ob-NN's attack-model input representation (Salem et al.).
func sortedTopK(probs []float64, k int) []float64 {
	cp := append([]float64(nil), probs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	if len(cp) < k {
		padded := make([]float64, k)
		copy(padded, cp)
		return padded
	}
	return cp[:k]
}

// GradientNorms computes the per-sample L2 norm of the full parameter
// gradient — the white-box signal Pb-Bayes adds on top of outputs. The
// backward pass asks for parameter gradients only, so the network's first
// layer skips its input gradient.
func GradientNorms(net nn.Layer, d *datasets.Dataset) []float64 {
	out := make([]float64, 0, d.Len())
	params := net.Params()
	for i := 0; i < d.Len(); i++ {
		x, y := d.Batch(i, i+1)
		nn.ZeroGrads(params)
		logits, cache := net.Forward(x, true)
		res := nn.SoftmaxCrossEntropy(logits, y)
		nn.BackwardFor(net, cache, res.Grad, nn.ParamGrads)
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		out = append(out, math.Sqrt(sq))
	}
	nn.ZeroGrads(params)
	return out
}

// lossesOf is a convenience wrapper shared by the threshold attacks.
func lossesOf(net nn.Layer, d *datasets.Dataset) []float64 {
	return fl.Losses(net, d, 64)
}
