package fl

import (
	"math"
	"testing"

	"github.com/cip-fl/cip/internal/tensor"
)

// FuzzNarrowWidenValidate fuzzes the f64↔f32 edge conversion at the FL
// boundary. Updates crossing internal/fl are always []float64 regardless
// of the training precision, so the property that matters is: narrowing a
// vector to float32 and widening it back must never turn a REJECTED update
// into an accepted one. NaN survives the round trip as NaN, ±Inf as ±Inf,
// and finite values beyond MaxFloat32 overflow to ±Inf — all of which
// ValidateUpdate still rejects. Values that narrow to finite float32
// (including subnormal flushes to zero) stay finite and stay accepted.
func FuzzNarrowWidenValidate(f *testing.F) {
	f.Add(1.5, -2.25, 0.0)
	f.Add(math.NaN(), 1.0, 2.0)
	f.Add(math.Inf(1), math.Inf(-1), 3.0)
	f.Add(math.MaxFloat64, -math.MaxFloat64, 1e-300)
	f.Add(float64(math.MaxFloat32), float64(math.SmallestNonzeroFloat32), -0.0)
	f.Fuzz(func(t *testing.T, x, y, z float64) {
		params := []float64{x, y, z}
		u := Update{ClientID: 1, Params: params, NumSamples: 1}
		errBefore := ValidateUpdate(u, len(params))

		narrow := make([]float32, len(params))
		tensor.NarrowSlice(narrow, params)
		round := make([]float64, len(params))
		tensor.WidenSlice(round, narrow)
		ur := Update{ClientID: 1, Params: round, NumSamples: 1}
		errAfter := ValidateUpdate(ur, len(round))

		if errBefore != nil && errAfter == nil {
			t.Fatalf("rejected update %v became accepted after f32 round trip: %v", params, round)
		}
		for i, v := range params {
			r := round[i]
			switch {
			case math.IsNaN(v):
				if !math.IsNaN(r) {
					t.Fatalf("param %d: NaN round-tripped to %v", i, r)
				}
			case math.IsInf(v, 0) || math.Abs(v) > math.MaxFloat32:
				// float64→float32 rounds to nearest: values within half an
				// ulp below MaxFloat32's successor stay finite, anything
				// beyond overflows to Inf with v's sign. Either way the
				// sign must hold and an overflow must be infinite.
				if math.Abs(v) >= math.MaxFloat32*(1+1.0/(1<<24)) && !math.IsInf(r, int(math.Copysign(1, v))) {
					t.Fatalf("param %d: %v should overflow to signed Inf, got %v", i, v, r)
				}
			default:
				// In-range finite values stay finite (subnormals may flush
				// toward zero but never become NaN/Inf).
				if math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("param %d: finite %v became non-finite %v", i, v, r)
				}
				if math.Abs(r-v) > math.Abs(v)*1e-6+1e-38 {
					t.Fatalf("param %d: %v drifted to %v beyond f32 rounding", i, v, r)
				}
			}
		}
	})
}
