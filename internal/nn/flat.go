package nn

import "fmt"

// FlattenParams concatenates every parameter value into one flat vector.
// This is the representation exchanged at the federated-learning boundary
// (aggregation, transport, DP clipping, white-box attacks).
func FlattenParams(params []*Param) []float64 { return FlattenParamsInto(nil, params) }

// FlattenParamsInto is FlattenParams into dst's storage when its capacity
// holds every parameter, and into a fresh vector otherwise.
func FlattenParamsInto(dst []float64, params []*Param) []float64 {
	if n := NumParams(params); cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	for _, p := range params {
		dst = append(dst, p.Value.Data...)
	}
	return dst
}

// SetFlatParams writes a flat vector produced by FlattenParams back into the
// parameters. It returns an error when the vector length does not match.
func SetFlatParams(params []*Param, flat []float64) error {
	if got, want := len(flat), NumParams(params); got != want {
		return fmt.Errorf("nn: flat vector length %d does not match parameter count %d", got, want)
	}
	off := 0
	for _, p := range params {
		n := p.Value.Size()
		copy(p.Value.Data, flat[off:off+n])
		off += n
	}
	return nil
}

// FlattenGrads concatenates every parameter gradient into one flat vector.
// White-box (parameter-based) membership inference attacks consume this.
func FlattenGrads(params []*Param) []float64 {
	n := NumParams(params)
	out := make([]float64, 0, n)
	for _, p := range params {
		out = append(out, p.Grad.Data...)
	}
	return out
}

// AxpyParams computes dst += alpha*src over flat parameter vectors in place.
func AxpyParams(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: AxpyParams length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}
