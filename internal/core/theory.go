package core

import "math"

// AdvantageRatio implements Theorem 1's bound: the factor
// ε = exp(−(l(θ, z_t′) − l(θ, z_t))/T) by which an adaptive attacker's
// adversarial advantage shrinks when it queries with a guessed
// perturbation t′ instead of the true t. Under the theorem's assumption
// l(θ, z_t) ≤ l(θ, z_t′) (training minimized the true-perturbation loss),
// the ratio is at most 1: guessing never helps.
func AdvantageRatio(lossTrue, lossGuessed, temperature float64) float64 {
	if temperature <= 0 {
		temperature = 1
	}
	return math.Exp(-(lossGuessed - lossTrue) / temperature)
}
