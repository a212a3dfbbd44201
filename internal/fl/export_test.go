package fl

import "math"

// PoisonRecycled makes the server NaN-fill every vector it hands back
// through UpdateRecycler, so anything still aliasing one reads poison, and
// returns a func restoring the plain hand-back.
func PoisonRecycled() (restore func()) {
	prev := recycleHook
	recycleHook = func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	return func() { recycleHook = prev }
}
