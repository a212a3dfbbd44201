// Package metrics provides the evaluation measures used across the paper's
// experiments: binary-classification quality (attack accuracy, precision,
// recall, F1), ROC-AUC, the earth-mover distance between loss
// distributions (Fig. 7), the structural similarity index between
// perturbation seeds (Table VIII), and histogram utilities (Fig. 1).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// BinaryCounts accumulates a confusion matrix for a binary decision task
// where "positive" means "predicted member".
type BinaryCounts struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) pair.
func (b *BinaryCounts) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		b.TP++
	case predicted && !actual:
		b.FP++
	case !predicted && !actual:
		b.TN++
	default:
		b.FN++
	}
}

// Accuracy returns (TP+TN)/total, the paper's "attack accuracy".
func (b BinaryCounts) Accuracy() float64 {
	total := b.TP + b.FP + b.TN + b.FN
	if total == 0 {
		return 0
	}
	return float64(b.TP+b.TN) / float64(total)
}

// Precision returns TP/(TP+FP); 0 when no positive predictions were made.
func (b BinaryCounts) Precision() float64 {
	if b.TP+b.FP == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FP)
}

// Recall returns TP/(TP+FN); 0 when there are no positives.
func (b BinaryCounts) Recall() float64 {
	if b.TP+b.FN == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (b BinaryCounts) F1() float64 {
	p, r := b.Precision(), b.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the four derived measures, matching Table IV's columns.
func (b BinaryCounts) String() string {
	return fmt.Sprintf("precision=%.3f recall=%.3f f1=%.3f accuracy=%.3f",
		b.Precision(), b.Recall(), b.F1(), b.Accuracy())
}

// ROCAUC computes the area under the ROC curve for scores where higher
// means "more likely member". labels[i] is true for members.
func ROCAUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores for %d labels", len(scores), len(labels)))
	}
	type pair struct {
		s float64
		m bool
	}
	ps := make([]pair, len(scores))
	pos, neg := 0, 0
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
		if labels[i] {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	// NaN scores rank lowest, as one tie group: a threshold decision never
	// calls them members (s >= threshold is false).
	sort.Slice(ps, func(i, j int) bool {
		return ps[i].s < ps[j].s || (math.IsNaN(ps[i].s) && !math.IsNaN(ps[j].s))
	})
	// Rank-sum (Mann-Whitney U) with tie handling via average ranks.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && (ps[j].s == ps[i].s || math.IsNaN(ps[j].s) && math.IsNaN(ps[i].s)) {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var sumPos float64
	for i, p := range ps {
		if p.m {
			sumPos += ranks[i]
		}
	}
	u := sumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg))
}

// TPRAtFPR returns the true-positive rate achievable at (at most) the
// given false-positive rate — the low-FPR operating point Carlini et al.
// ("Membership Inference Attacks from First Principles", cited as [10])
// argue is the honest way to score MI attacks: average-case accuracy can
// hide an attack that confidently identifies a few members.
func TPRAtFPR(scores []float64, labels []bool, maxFPR float64) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores for %d labels", len(scores), len(labels)))
	}
	var negScores []float64
	pos, neg := 0, 0
	for i, m := range labels {
		if m {
			pos++
		} else {
			neg++
			negScores = append(negScores, scores[i])
		}
	}
	if pos == 0 || neg == 0 {
		return 0
	}
	// Threshold = the smallest score that keeps FPR ≤ maxFPR.
	sort.Sort(sort.Reverse(sort.Float64Slice(negScores)))
	allowed := int(maxFPR * float64(neg))
	var threshold float64
	if allowed >= len(negScores) {
		threshold = math.Inf(-1)
	} else {
		threshold = negScores[allowed]
	}
	tp := 0
	for i, m := range labels {
		if m && scores[i] > threshold {
			tp++
		}
	}
	return float64(tp) / float64(pos)
}

// EMD1D returns the earth-mover (Wasserstein-1) distance between two
// empirical 1-D distributions given as samples. For sorted samples of
// equal length it is the mean absolute difference of order statistics; for
// unequal lengths it integrates the gap between empirical CDFs.
func EMD1D(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if len(as) == len(bs) {
		s := 0.0
		for i := range as {
			s += math.Abs(as[i] - bs[i])
		}
		return s / float64(len(as))
	}
	// General case: EMD = ∫ |F_a(x) − F_b(x)| dx over the merged support.
	// The CDFs are constant on each interval between adjacent merged
	// sample points, with value P(X ≤ left endpoint).
	merged := append(append([]float64(nil), as...), bs...)
	sort.Float64s(merged)
	total := 0.0
	for i := 0; i+1 < len(merged); i++ {
		width := merged[i+1] - merged[i]
		if width <= 0 {
			continue
		}
		fa := float64(upperBound(as, merged[i])) / float64(len(as))
		fb := float64(upperBound(bs, merged[i])) / float64(len(bs))
		total += math.Abs(fa-fb) * width
	}
	return total
}

// upperBound returns the count of elements in sorted ≤ x.
func upperBound(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
}

// MeanPairwiseEMD returns the average EMD over all unordered pairs of the
// given sample sets — Fig. 7's heterogeneity measure across client loss
// trajectories.
func MeanPairwiseEMD(series [][]float64) float64 {
	n := len(series)
	if n < 2 {
		return 0
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += EMD1D(series[i], series[j])
			count++
		}
	}
	return sum / float64(count)
}

// SSIM computes the (global, single-window) structural similarity index
// between two equal-length signals scaled to dynamic range L. The paper
// uses SSIM to quantify how close an adversary's guessed perturbation seed
// is to the client's secret seed (Table VIII).
func SSIM(x, y []float64, dynamicRange float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("metrics: SSIM length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 1
	}
	l := dynamicRange
	if l <= 0 {
		l = 1
	}
	c1 := (0.01 * l) * (0.01 * l)
	c2 := (0.03 * l) * (0.03 * l)
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var vx, vy, cov float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		vx += dx * dx
		vy += dy * dy
		cov += dx * dy
	}
	vx /= n
	vy /= n
	cov /= n
	return ((2*mx*my + c1) * (2*cov + c2)) / ((mx*mx + my*my + c1) * (vx + vy + c2))
}

// Histogram bins samples into n equal-width bins over [lo, hi] and returns
// normalized densities (summing to 1). Samples outside the range clamp to
// the boundary bins. Fig. 1's loss-distribution plots are built from this.
func Histogram(samples []float64, lo, hi float64, n int) []float64 {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: bad histogram spec [%v,%v] n=%d", lo, hi, n))
	}
	counts := make([]float64, n)
	if len(samples) == 0 {
		return counts
	}
	w := (hi - lo) / float64(n)
	for _, s := range samples {
		i := int((s - lo) / w)
		if i < 0 {
			i = 0
		} else if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= float64(len(samples))
	}
	return counts
}

// OverlapCoefficient returns the histogram overlap Σ min(p_i, q_i) of two
// normalized histograms — the quantitative form of Fig. 1's "distributions
// become alike" claim (1 means identical, 0 disjoint).
func OverlapCoefficient(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("metrics: overlap length mismatch %d vs %d", len(p), len(q)))
	}
	s := 0.0
	for i := range p {
		s += math.Min(p[i], q[i])
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
