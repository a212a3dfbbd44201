package tensor

import "fmt"

// Precision interchange helpers. The FL boundary (updates, checkpoints,
// the wire codec) is float64 by contract; these are the only conversions
// the f32 compute tier performs, and they follow IEEE-754 semantics
// exactly as Go's conversions define them:
//
//   - NaN narrows to NaN and widens to NaN (payload not preserved), so a
//     poisoned update still trips ValidateUpdate after a round-trip.
//   - ±Inf narrows to ±Inf; finite float64 values beyond ±MaxFloat32
//     overflow to ±Inf, which ValidateUpdate also rejects — narrowing can
//     surface invalid updates, never hide them.
//   - float64 values below the float32 subnormal range flush toward zero;
//     float32 subnormals widen exactly. Both directions keep finiteness.
//
// internal/fl's FuzzNarrowWidenValidate holds these properties.

// NarrowSlice writes float32(src[i]) into dst. Lengths must match.
func NarrowSlice(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: NarrowSlice length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// WidenSlice writes float64(src[i]) into dst. Lengths must match.
func WidenSlice(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: WidenSlice length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}
