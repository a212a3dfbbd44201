package robust

import (
	"math"
	"testing"
)

// FuzzRobustAggregate drives every robust rule with adversarial update
// matrices — random shapes, NaN/Inf poisoning, extreme scalings — and
// requires that no rule ever panics or emits a non-finite aggregate, and
// that Median and TrimmedMean equal their sort-based definitions bit for
// bit, Report included. The fuzzer decodes its raw bytes into a params
// matrix: the first bytes pick the shape (1–16 rows, both sides of
// sort.Float64s' insertion-sort cutoff), the rest fill coordinates
// through a small value codec that deliberately over-samples NaN, ±Inf,
// huge magnitudes, and ties of signed zeros and small values. Every
// output is recycled, so the next rule builds its output over stale
// values.
func FuzzRobustAggregate(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 1, 255})
	f.Add([]byte{8, 2, 250, 251, 252, 253, 254, 255, 0, 0, 9, 9, 9, 9, 9, 9, 1, 1})
	f.Add([]byte{12, 3, 128, 64, 32, 16, 8, 4, 2, 1, 250, 250, 250, 250})
	f.Add([]byte{4, 1, 246, 247, 246, 247, 248})
	f.Add([]byte{14, 2, 246, 247, 247, 246, 249, 246, 250, 247})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows := int(data[0])%16 + 1
		dim := int(data[1])%64 + 1
		data = data[2:]
		decode := func(b byte) float64 {
			switch {
			case b >= 250:
				return [6]float64{math.NaN(), math.Inf(1), math.Inf(-1),
					math.MaxFloat64, -math.MaxFloat64, 1e308}[b-250]
			case b >= 246:
				return [4]float64{math.Copysign(0, -1), 0, 1, -1}[b-246]
			case b >= 200:
				return math.Pow(10, float64(b-225)) // 1e-25 .. 1e24
			default:
				return float64(b) - 100
			}
		}
		params := make([][]float64, rows)
		pos := 0
		for r := range params {
			params[r] = make([]float64, dim)
			for i := range params[r] {
				var b byte
				if len(data) > 0 {
					b = data[pos%len(data)]
					pos++
				}
				params[r][i] = decode(b)
			}
		}
		center := make([]float64, dim)
		for i := range center {
			center[i] = decode(byte(i))
		}
		weights := make([]float64, rows)
		for i := range weights {
			weights[i] = float64(i + 1)
		}
		for _, agg := range []Aggregator{
			Mean{}, Median{},
			TrimmedMean{Frac: 0.1}, TrimmedMean{Frac: 0.49},
			ClippedMean{MaxNorm: 1}, ClippedMean{MaxNorm: 1e300},
		} {
			out, rep, err := agg.Aggregate(center, params, weights)
			if err != nil {
				t.Fatalf("%s: unexpected error on well-shaped input: %v", agg.Name(), err)
			}
			if len(out) != dim {
				t.Fatalf("%s: output dim %d, want %d", agg.Name(), len(out), dim)
			}
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite aggregate %v at coordinate %d", agg.Name(), v, i)
				}
			}
			if rep.Contributors < 1 || rep.Contributors > rows {
				t.Fatalf("%s: contributors %d out of range [1, %d]", agg.Name(), rep.Contributors, rows)
			}
			if rep.Trimmed < 0 || rep.Clipped < 0 {
				t.Fatalf("%s: negative report %+v", agg.Name(), rep)
			}
			Recycle(out)
			checkAgainstDefinition(t, agg, center, params)
		}
		// The deviation signal downstream of aggregation must stay
		// well-defined too: NaN distances would corrupt reputation EWMAs.
		out, _, _ := Median{}.Aggregate(center, params, weights)
		for r, d := range Distances(out, params) {
			if math.IsNaN(d) {
				t.Fatalf("NaN distance for row %d", r)
			}
		}
	})
}
