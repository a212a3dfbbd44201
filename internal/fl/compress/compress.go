// Package compress implements uniform quantization of parameter-update
// vectors, the standard communication-efficiency technique for federated
// learning (Konečný et al., which the paper builds on for its FL
// substrate). A Quantizer maps a []float64 update into b-bit integer
// codes plus a per-vector scale; Decode reconstructs an approximation
// whose error shrinks exponentially in b.
package compress

import (
	"fmt"
	"math"
)

// Quantizer uniformly quantizes vectors to Bits bits per coordinate.
type Quantizer struct {
	// Bits per coordinate, in [1, 16].
	Bits int
}

// Quantized is a compressed vector: codes plus the affine range that maps
// them back to floats.
type Quantized struct {
	Codes    []uint16
	Min, Max float64
	Bits     int
	// N retains the original length for validation.
	N int
}

// Encode compresses v. It returns an error for invalid bit widths.
func (q Quantizer) Encode(v []float64) (*Quantized, error) {
	if q.Bits < 1 || q.Bits > 16 {
		return nil, fmt.Errorf("compress: bits must be in [1,16], got %d", q.Bits)
	}
	out := &Quantized{Codes: make([]uint16, len(v)), Bits: q.Bits, N: len(v)}
	if len(v) == 0 {
		return out, nil
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	out.Min, out.Max = lo, hi
	levels := float64(uint32(1)<<q.Bits - 1)
	span := hi - lo
	if span == 0 {
		return out, nil // constant vector: all codes zero
	}
	for i, x := range v {
		c := math.Round((x - lo) / span * levels)
		if c < 0 {
			c = 0
		} else if c > levels {
			c = levels
		}
		out.Codes[i] = uint16(c)
	}
	return out, nil
}

// Decode reconstructs the approximate vector.
func (z *Quantized) Decode() []float64 {
	out := make([]float64, z.N)
	for i, c := range z.Codes {
		out[i] = dequant(z.Min, z.Max, z.Bits, c)
	}
	return out
}

// dequant maps code c back into [lo, hi]. It is the one expression the
// receiver's decode and the sender's residual update both evaluate.
func dequant(lo, hi float64, bits int, c uint16) float64 {
	span := hi - lo
	if span == 0 {
		return lo
	}
	return lo + float64(c)/float64(uint32(1)<<bits-1)*span
}

// MaxError returns the worst-case reconstruction error of the encoding:
// half a quantization step.
func (z *Quantized) MaxError() float64 {
	span := z.Max - z.Min
	if span == 0 {
		return 0
	}
	levels := float64(uint32(1)<<z.Bits - 1)
	return span / levels / 2
}

// CompressedBits returns the payload size in bits (codes only; the two
// range floats and lengths are constant overhead).
func (z *Quantized) CompressedBits() int { return z.N * z.Bits }
