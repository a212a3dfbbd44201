package compress

// Load-bearing update compression for the federated wire path: top-k
// sparsification and int8/int16 uniform quantization of parameter-update
// deltas, composed with error feedback so the information a lossy round
// drops is carried into the next one instead of lost (Seide et al.'s
// 1-bit SGD trick, which the communication-efficiency line the MI-defense
// survey treats as a first-class knob builds on).
//
// The split of responsibilities:
//
//   - This file owns the MATH: deterministic top-k selection, delta
//     quantize/dequantize, the error-feedback fold, and the per-client
//     residual Bank the in-process engine checkpoints.
//   - internal/fl/wire owns the BYTES: the little-endian frame layout a
//     Delta occupies on the wire.
//   - internal/fl owns the SEMANTICS: sparse-shape validation and the
//     densify step that turns a decoded delta back into raw parameters.
//
// Everything here is deterministic: the same input vector and residual
// produce the same Delta and the same new residual, bit for bit, which is
// what lets a killed-and-resumed federation replay compressed rounds
// identically.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Mode enumerates the update-compression codecs a client can negotiate.
// The zero value is None (dense raw parameters, no compression).
type Mode uint8

const (
	// None sends dense raw parameters (no compression).
	None Mode = 0
	// TopK sends the k largest-magnitude delta coordinates as raw floats.
	TopK Mode = 1
	// Q8 sends the dense delta uniformly quantized to 8-bit codes.
	Q8 Mode = 2
	// Q16 sends the dense delta uniformly quantized to 16-bit codes.
	Q16 Mode = 3
	// TopKQ8 composes top-k selection with 8-bit quantized values.
	TopKQ8 Mode = 4
	// TopKQ16 composes top-k selection with 16-bit quantized values.
	TopKQ16 Mode = 5

	// modeCount bounds the valid mode range for decoders.
	modeCount = 6
)

// Valid reports whether m names a known mode.
func (m Mode) Valid() bool { return m < modeCount }

// Sparse reports whether m sends index/value pairs rather than a dense body.
func (m Mode) Sparse() bool { return m == TopK || m == TopKQ8 || m == TopKQ16 }

// Bits returns the quantization width of m's values (0 = raw float64).
func (m Mode) Bits() int {
	switch m {
	case Q8, TopKQ8:
		return 8
	case Q16, TopKQ16:
		return 16
	default:
		return 0
	}
}

// String returns the flag-level name of m.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case TopK:
		return "topk"
	case Q8:
		return "q8"
	case Q16:
		return "q16"
	case TopKQ8:
		return "topk8"
	case TopKQ16:
		return "topk16"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode maps the flag-level names (as accepted by -compress) onto
// modes. The empty string and "none" both mean no compression.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "none":
		return None, nil
	case "topk":
		return TopK, nil
	case "q8", "int8":
		return Q8, nil
	case "q16", "int16":
		return Q16, nil
	case "topk8", "topk-q8":
		return TopKQ8, nil
	case "topk16", "topk-q16":
		return TopKQ16, nil
	default:
		return None, fmt.Errorf("compress: unknown mode %q (want none, topk, q8, q16, topk8, topk16)", s)
	}
}

// DefaultTopKFrac is the top-k fraction used when a sparse mode is
// selected without an explicit fraction: 1% of coordinates per round.
const DefaultTopKFrac = 0.01

// Config selects a compression codec for one client.
type Config struct {
	Mode Mode
	// TopKFrac is the fraction of coordinates a sparse mode keeps, in
	// (0, 1]; 0 means DefaultTopKFrac. Ignored by dense modes.
	TopKFrac float64
}

// WithDefaults fills zero fields and clamps TopKFrac into (0, 1].
func (c Config) WithDefaults() Config {
	if !c.Mode.Sparse() {
		c.TopKFrac = 0
		return c
	}
	if c.TopKFrac <= 0 {
		c.TopKFrac = DefaultTopKFrac
	}
	if c.TopKFrac > 1 {
		c.TopKFrac = 1
	}
	return c
}

// K returns how many coordinates a sparse mode keeps for an n-long vector:
// at least 1, at most n.
func (c Config) K(n int) int {
	c = c.WithDefaults()
	if n <= 0 {
		return 0
	}
	k := int(c.TopKFrac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Delta is one compressed update delta: the lossy representation of a
// parameter-delta vector that crosses the wire. Exactly one of
// Values/Codes is populated, keyed on Bits.
type Delta struct {
	// Len is the dense length of the underlying delta vector.
	Len int
	// Indices, when non-nil, holds the strictly ascending coordinates of
	// a sparse delta; nil means the body is dense (Len entries).
	Indices []int
	// Values holds raw float64 values when Bits == 0.
	Values []float64
	// Bits is the quantization width (0, 8, or 16).
	Bits int
	// Min and Max are the affine dequantization range when Bits > 0.
	Min, Max float64
	// Codes holds the quantized values when Bits > 0.
	Codes []uint16
}

// TopKSelect returns the indices of the k largest-|v| coordinates in
// strictly ascending index order. Selection is deterministic: magnitude
// ties break toward the lower index, so the same vector always produces
// the same support whatever the caller's platform or worker count.
//
// Magnitudes order by bit pattern, math.Float64bits(math.Abs(x)): the
// numeric order for every non-NaN value, and a NaN ranks above +Inf, so
// it is always selected and reaches the receiver's validation instead of
// parking in a residual.
//
// The k-th largest key is found by most-significant-digit radix
// selection — a 12-bit histogram of the keys inside the bucket chosen so
// far, one read-only sweep per digit, until the bucket holding the k-th
// key is taken whole (three sweeps on a Gaussian vector, six at most).
// One ascending sweep then emits the keys above that bucket and the
// bucket's own lowest-index-first: O(n), 16 KB of scratch, sorted output.
func TopKSelect(v []float64, k int) []int {
	if k >= len(v) {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, max(k, 0))
	if k <= 0 {
		return idx
	}
	// The bucket being narrowed holds the (63-bit) keys in
	// [base, base+1<<shift); the support takes need of them.
	const digit = 12
	var (
		hist  [1 << digit]uint32 // len(v) fits: wire indices are uint32
		shift = uint(63)
		base  uint64
		need  = uint32(k)
	)
	for shift > 0 {
		span := uint64(1) << shift
		shift -= min(digit, shift)
		clear(hist[:])
		for _, x := range v {
			if d := magKey(x) - base; d < span {
				hist[d>>(shift&63)&(1<<digit-1)]++ // masks only spare the range checks
			}
		}
		b := span>>shift - 1
		for hist[b] < need {
			need -= hist[b]
			b--
		}
		base += b << shift
		if hist[b] == need {
			break // the bucket is taken whole: no finer threshold needed
		}
	}
	top := base + 1<<shift // shift <= 51 here: no overflow
	for i, x := range v {
		if key := magKey(x); key >= top {
			idx = append(idx, i)
		} else if key >= base && need > 0 {
			idx = append(idx, i)
			need--
		}
	}
	return idx
}

// magKey is the selection key of x: the bit pattern of |x|.
func magKey(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// Compress encodes the dense delta vector v under c. The zero-value
// config (Mode None) stores v losslessly.
func (c Config) Compress(v []float64) (*Delta, error) {
	c = c.WithDefaults()
	if !c.Mode.Valid() {
		return nil, fmt.Errorf("compress: invalid mode %d", c.Mode)
	}
	d := &Delta{Len: len(v)}
	body := v
	if c.Mode.Sparse() {
		d.Indices = TopKSelect(v, c.K(len(v)))
		body = make([]float64, len(d.Indices))
		for j, i := range d.Indices {
			body[j] = v[i]
		}
	}
	if bits := c.Mode.Bits(); bits > 0 {
		z, err := Quantizer{Bits: bits}.Encode(body)
		if err != nil {
			return nil, err
		}
		d.Bits = bits
		d.Min, d.Max = z.Min, z.Max
		d.Codes = z.Codes
	} else {
		if c.Mode.Sparse() {
			d.Values = body
		} else {
			d.Values = append([]float64(nil), body...)
		}
	}
	return d, nil
}

// Decode reconstructs the dense approximate delta.
func (d *Delta) Decode() []float64 {
	out := make([]float64, d.Len)
	d.DecodeInto(out)
	return out
}

// DecodeInto writes the dense approximate delta into out (which must have
// length d.Len); untouched coordinates of a sparse delta are zeroed.
func (d *Delta) DecodeInto(out []float64) {
	for i := range out {
		out[i] = 0
	}
	vals := d.Values
	if d.Bits > 0 {
		z := Quantized{Codes: d.Codes, Min: d.Min, Max: d.Max, Bits: d.Bits, N: len(d.Codes)}
		vals = z.Decode()
	}
	if d.Indices == nil {
		copy(out, vals)
		return
	}
	for j, i := range d.Indices {
		out[i] = vals[j]
	}
}

// WireBytes returns the body size this delta occupies in the binary wire
// codec (indices, values/codes, and the quantization range — excluding
// the fixed per-update header). Telemetry uses it to report
// bytes-per-round.
func (d *Delta) WireBytes() int {
	n := 0
	if d.Indices != nil {
		n += 4 + 4*len(d.Indices) // k prefix + uint32 indices
	}
	if d.Bits > 0 {
		n += 16 + len(d.Codes)*d.Bits/8 // min/max + codes
	} else {
		n += 8 * len(d.Values)
	}
	return n
}

// at returns the j-th body value as the receiver reconstructs it.
func (d *Delta) at(j int) float64 {
	if d.Bits == 0 {
		return d.Values[j]
	}
	return dequant(d.Min, d.Max, d.Bits, d.Codes[j])
}

// CompressInPlace is the error-feedback step of one client round, run in
// the caller-owned residual: residual[i] becomes
// (params[i]-global[i]) + residual[i], that vector is compressed, and
// what the receiver will reconstruct is subtracted back out of the
// coordinates the delta carries — every other one already holds its new
// residual. A nil residual means zero (a fresh one is allocated). The
// returned residual has advanced when err is nil and is untouched
// otherwise; params and global are only read.
func (c Config) CompressInPlace(params, global, residual []float64) (*Delta, []float64, error) {
	if len(params) != len(global) || residual != nil && len(residual) != len(params) {
		return nil, residual, fmt.Errorf("compress: %d params, %d global, %d residual entries",
			len(params), len(global), len(residual))
	}
	if !c.Mode.Valid() {
		return nil, residual, fmt.Errorf("compress: invalid mode %d", c.Mode)
	}
	if residual == nil {
		residual = make([]float64, len(params))
		for i := range residual {
			residual[i] = params[i] - global[i]
		}
	} else {
		for i, r := range residual {
			residual[i] = (params[i] - global[i]) + r
		}
	}
	d, err := c.feedBack(residual)
	return d, residual, err
}

// feedBack compresses v and leaves the residual, v − decode(delta), in v;
// off the delta's support that is v itself, so only carried slots change.
func (c Config) feedBack(v []float64) (*Delta, error) {
	d, err := c.Compress(v)
	if err != nil {
		return nil, err
	}
	if d.Indices == nil {
		for i := range v {
			v[i] -= d.at(i)
		}
		return d, nil
	}
	for j, i := range d.Indices {
		v[i] -= d.at(j)
	}
	return d, nil
}

// CompressEF is Compress with error feedback: the residual the previous
// round's compression left behind is folded into this round's delta
// before selection/quantization, and the information this round drops
// becomes the new residual. A nil residual is treated as zero. Returns
// the compressed delta and the new residual (always a fresh slice of
// len(delta)); neither input is modified. It is the pure form of
// CompressInPlace, for callers that keep their inputs.
func (c Config) CompressEF(delta, residual []float64) (*Delta, []float64, error) {
	v := make([]float64, len(delta))
	copy(v, delta)
	if residual != nil {
		if len(residual) != len(delta) {
			return nil, nil, fmt.Errorf("compress: residual has %d entries, delta %d",
				len(residual), len(delta))
		}
		for i, r := range residual {
			v[i] += r
		}
	}
	d, err := c.feedBack(v)
	if err != nil {
		return nil, nil, err
	}
	return d, v, nil
}

// Bank holds per-client error-feedback residuals on the server side, for
// the in-process engine's simulation of the wire compression path. Its
// state is part of the federation's durable closure: Snapshot/Restore
// ride fl.ServerState through the checkpoint container, so a killed and
// resumed run replays compressed rounds bit-identically.
type Bank struct {
	Cfg Config
	// residuals maps client ID to its accumulated error-feedback residual.
	residuals map[int][]float64
}

// NewBank creates a bank for the given codec config.
func NewBank(cfg Config) *Bank {
	return &Bank{Cfg: cfg.WithDefaults(), residuals: make(map[int][]float64)}
}

// RoundTrip simulates one client's update crossing the compressed wire:
// the raw post-training params become a delta against the broadcast
// global, the client's residual is folded in, the delta is compressed and
// immediately decoded, and the reconstruction global+decoded is returned
// along with the wire-body byte count. The dropped information becomes
// the client's new residual.
func (b *Bank) RoundTrip(clientID int, global, params []float64) ([]float64, int, error) {
	if len(params) != len(global) {
		return nil, 0, fmt.Errorf("compress: client %d update has %d params, global has %d",
			clientID, len(params), len(global))
	}
	if b.Cfg.Mode == None {
		out := append([]float64(nil), params...)
		return out, 8 * len(params), nil
	}
	d, res, err := b.Cfg.CompressInPlace(params, global, b.residuals[clientID])
	if err != nil {
		return nil, 0, fmt.Errorf("compress: client %d: %w", clientID, err)
	}
	b.residuals[clientID] = res
	out := d.Decode()
	for i := range out {
		out[i] += global[i]
	}
	return out, d.WireBytes(), nil
}

// bankState is the gob layout of a Bank's durable state. The config is
// included so a restore onto a differently configured bank is caught
// instead of silently replaying with the wrong codec.
type bankState struct {
	Mode      uint8
	TopKFrac  float64
	Residuals map[int][]float64
}

// Snapshot serializes the bank's residuals for the checkpoint container.
func (b *Bank) Snapshot() ([]byte, error) {
	st := bankState{Mode: uint8(b.Cfg.Mode), TopKFrac: b.Cfg.TopKFrac, Residuals: b.residuals}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("compress: encoding bank state: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore rewinds the bank to a snapshotted state. The snapshot's codec
// config must match the bank's.
func (b *Bank) Restore(blob []byte) error {
	var st bankState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("compress: decoding bank state: %w", err)
	}
	if Mode(st.Mode) != b.Cfg.Mode || st.TopKFrac != b.Cfg.TopKFrac {
		return fmt.Errorf("compress: snapshot was taken under %s/%g, bank is configured %s/%g",
			Mode(st.Mode), st.TopKFrac, b.Cfg.Mode, b.Cfg.TopKFrac)
	}
	if st.Residuals == nil {
		st.Residuals = make(map[int][]float64)
	}
	b.residuals = st.Residuals
	return nil
}
