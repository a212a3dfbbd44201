package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// Payload codecs. Layouts (little-endian throughout):
//
// Round (MsgRound2, mode always None) — the round broadcast, carrying the
// root-coordinated shard-sampling directive and sketch capacity alongside
// the global (clients ignore the directive; tree nodes act on it):
//
//	round      uint32
//	durable    int32   (last durable round; -1 when durability is off)
//	sampleFrac float64
//	sampleSeed uint64
//	sketchCap  uint32
//	n          uint32  (parameter count)
//	params     n × float64
//
// Update (MsgUpdate; body depends on the frame's compression mode):
//
//	clientID   uint32
//	numSamples uint32
//	trainLoss  float64
//	denseLen   uint32  (dense length of the model vector)
//	body:
//	  none:   denseLen × float64           raw dense parameters
//	  topk:   k uint32, k × uint32 indices, k × float64 delta values
//	  q8/q16: min float64, max float64, denseLen × (1|2) byte codes
//	  topk8/topk16:
//	          k uint32, min float64, max float64,
//	          k × uint32 indices, k × (1|2) byte codes
//
// Compressed bodies are DELTAS against the round's broadcast global (the
// decode side surfaces them as fl.Update{IsDelta: true} for fl.Densify);
// mode none carries raw parameters, which keeps an uncompressed TCP
// federation bit-identical to the in-process engine.
//
// Done (MsgDone): empty payload.
//
// Partial (MsgPartial2, mode always None) — a tree node's pre-division
// contribution for one round, its coverage metadata and an optional
// mergeable row sketch:
//
//	round   uint32
//	leafID  uint32
//	count   uint32  (client updates folded into the sums)
//	flags   uint32  (bit0 = degraded, bit1 = sketch present)
//	weight  float64 (total FedAvg weight Σ w)
//	expect  float64 (the subtree's planned cohort weight this round)
//	n       uint32  (parameter count)
//	sum     n × float64 (weighted parameter sums Σ w·v)
//	sketch (only when flags bit1):
//	  cap  uint32
//	  rows uint32  (total rows the sketch represents)
//	  k    uint32  (retained rows; keys sorted ascending)
//	  keys k × uint64
//	  vals k × n × float64
//
// Every decoder validates the exact size arithmetic before touching the
// body, allocates nothing larger than ~8× the received payload, and runs
// under a panic guard — the update path parses attacker-controlled bytes.

const (
	updateHeadLen   = 20
	partial2HeadLen = 36
	sketchHeadLen   = 12
	round2HeadLen   = 32
)

// Partial2 flag bits.
const (
	partial2Degraded  = 1 << 0
	partial2HasSketch = 1 << 1
)

func appendU32(dst []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

// word is an 8-byte body element: a float64 parameter or a uint64 sketch
// key. Bodies of words move as one copy of the vector's bytes.
type word interface{ float64 | uint64 }

// wordBytes views v's storage as bytes: on a little-endian host, the
// vector's wire bytes; swapWords converts them on a big-endian one.
func wordBytes[T word](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendWords appends v's wire bytes to dst.
func appendWords[T word](dst []byte, v []T) []byte {
	n := len(dst)
	dst = append(dst, wordBytes(v)...)
	swapWords(dst[n:])
	return dst
}

// getWords fills dst from the wire bytes at the front of b.
func getWords[T word](dst []T, b []byte) {
	d := wordBytes(dst)
	copy(d, b[:len(d)])
	swapWords(d)
}

func getU32(b []byte) uint32  { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// AppendRoundFrame appends a complete round frame broadcasting params for
// the given round with no tree directive. durable is the coordinator's
// last durable round (-1 when durability is off).
func AppendRoundFrame(dst []byte, round, durable int, params []float64) []byte {
	return AppendRound2Frame(dst, Round2{Round: round, Durable: durable, Params: params})
}

// AppendDoneFrame appends a complete MsgDone frame.
func AppendDoneFrame(dst []byte) []byte {
	return AppendHeader(dst, MsgDone, compress.None, 0)
}

// DecodeRound parses a round payload, dropping the tree directive.
func DecodeRound(payload []byte) (round, durable int, params []float64, err error) {
	r, err := DecodeRound2(payload)
	return r.Round, r.Durable, r.Params, err
}

// roundHead parses the fixed head of a round payload whose declared length
// is size — head holds min(size, round2HeadLen) bytes — and returns the
// parameter count the body must carry.
func roundHead(head []byte, size int) (r Round2, n int, err error) {
	if size < round2HeadLen {
		return Round2{}, 0, fmt.Errorf("%w: round payload of %d bytes", ErrTruncated, size)
	}
	r.Round = int(getU32(head[0:]))
	r.Durable = int(int32(getU32(head[4:])))
	r.SampleFrac = getF64(head[8:])
	r.SampleSeed = int64(getU64(head[16:]))
	r.SketchCap = int(int32(getU32(head[24:])))
	n = int(getU32(head[28:]))
	if size != round2HeadLen+8*n {
		return Round2{}, 0, fmt.Errorf("%w: round declares %d params in %d bytes, want %d",
			ErrPayload, n, size, round2HeadLen+8*n)
	}
	return r, n, nil
}

// Partial2PayloadLen returns the partial payload size for n parameters
// and k retained sketch rows (k is ignored when the sketch is absent).
func Partial2PayloadLen(n, k int, hasSketch bool) int {
	size := partial2HeadLen + 8*n
	if hasSketch {
		size += sketchHeadLen + 8*k + 8*k*n
	}
	return size
}

// AppendPartial2Frame appends a complete MsgPartial2 frame carrying a
// subtree's pre-division sums, coverage metadata, and (when present) its
// mergeable row sketch.
func AppendPartial2Frame(dst []byte, p fl.Partial) []byte {
	var k int
	var flags uint32
	if p.Degraded {
		flags |= partial2Degraded
	}
	if p.Sketch != nil {
		flags |= partial2HasSketch
		k = len(p.Sketch.Keys)
	}
	dst = AppendHeader(dst, MsgPartial2, compress.None, Partial2PayloadLen(len(p.Sum), k, p.Sketch != nil))
	dst = appendU32(dst, uint32(p.Round))
	dst = appendU32(dst, uint32(p.LeafID))
	dst = appendU32(dst, uint32(p.Count))
	dst = appendU32(dst, flags)
	dst = appendF64(dst, p.Weight)
	dst = appendF64(dst, p.ExpectWeight)
	dst = appendU32(dst, uint32(len(p.Sum)))
	dst = appendWords(dst, p.Sum)
	if p.Sketch != nil {
		dst = appendU32(dst, uint32(p.Sketch.Cap))
		dst = appendU32(dst, uint32(p.Sketch.Rows))
		dst = appendU32(dst, uint32(k))
		dst = appendWords(dst, p.Sketch.Keys)
		for _, row := range p.Sketch.Vals {
			dst = appendWords(dst, row)
		}
	}
	return dst
}

// DecodePartial2 parses a MsgPartial2 payload. Structural checks only
// (exact size arithmetic, bounded allocation, panic guard); semantic
// validation — including the sketch's sorted-keys/finiteness/row-count
// invariants — is fl.ValidatePartial's job at the parent. It is
// Reader.Partial over the payload, with sums, sketch and rows in storage
// of their own.
func DecodePartial2(payload []byte) (fl.Partial, error) {
	_, n, _, err := partialHead(payload, len(payload))
	if err != nil {
		return fl.Partial{}, err
	}
	return NewReader(bytes.NewReader(payload)).Partial(len(payload), make([]float64, n), new(robust.Sketch),
		func() []float64 { return make([]float64, n) })
}

// partialHead parses the fixed head of a partial payload whose declared
// length is size — head holds min(size, partial2HeadLen) bytes — and
// returns the parameter count the sums carry (and room for a sketch head
// behind them).
func partialHead(head []byte, size int) (p fl.Partial, n int, hasSketch bool, err error) {
	if size < partial2HeadLen {
		return fl.Partial{}, 0, false, fmt.Errorf("%w: partial2 payload of %d bytes", ErrTruncated, size)
	}
	p.Round = int(getU32(head[0:]))
	p.LeafID = int(getU32(head[4:]))
	p.Count = int(int32(getU32(head[8:])))
	flags := getU32(head[12:])
	p.Weight = getF64(head[16:])
	p.ExpectWeight = getF64(head[24:])
	p.Degraded = flags&partial2Degraded != 0
	hasSketch = flags&partial2HasSketch != 0
	n = int(getU32(head[32:]))
	// Every parameter costs ≥ 8 payload bytes, so a declared count beyond
	// size/8 is a lie — reject before the size products below can overflow.
	if n > size/8 {
		return fl.Partial{}, 0, false, fmt.Errorf("%w: partial2 declares %d params in %d bytes", ErrPayload, n, size)
	}
	switch rest := size - partial2HeadLen - 8*n; {
	case !hasSketch && rest != 0:
		return fl.Partial{}, 0, false, fmt.Errorf("%w: partial2 declares %d params in %d bytes, want %d",
			ErrPayload, n, size, partial2HeadLen+8*n)
	case hasSketch && rest < sketchHeadLen:
		return fl.Partial{}, 0, false, fmt.Errorf("%w: partial2 sketch head of %d bytes", ErrTruncated, rest)
	}
	return p, n, hasSketch, nil
}

// Round2 is the decoded form of a round broadcast: the round, the durable
// announce and the global, plus the root-coordinated shard-sampling
// directive and sketch capacity.
type Round2 struct {
	Round      int
	Durable    int
	SampleFrac float64
	SampleSeed int64
	SketchCap  int
	Params     []float64
}

// Round2PayloadLen returns the round payload size for n parameters.
func Round2PayloadLen(n int) int { return round2HeadLen + 8*n }

// AppendRound2Frame appends a complete MsgRound2 frame.
func AppendRound2Frame(dst []byte, r Round2) []byte {
	dst = AppendHeader(dst, MsgRound2, compress.None, Round2PayloadLen(len(r.Params)))
	dst = appendU32(dst, uint32(r.Round))
	dst = appendU32(dst, uint32(int32(r.Durable)))
	dst = appendF64(dst, r.SampleFrac)
	dst = appendU64(dst, uint64(r.SampleSeed))
	dst = appendU32(dst, uint32(r.SketchCap))
	dst = appendU32(dst, uint32(len(r.Params)))
	return appendWords(dst, r.Params)
}

// DecodeRound2 parses a round payload: Reader.Round over it, into a fresh
// vector.
func DecodeRound2(payload []byte) (Round2, error) {
	return NewReader(bytes.NewReader(payload)).Round(len(payload), nil)
}

// UpdatePayloadLen returns the update payload size for a dense length and
// a compressed body of k kept coordinates under mode (k is ignored by
// dense modes).
func UpdatePayloadLen(mode compress.Mode, denseLen, k int) int {
	n := updateHeadLen
	switch mode {
	case compress.None:
		n += 8 * denseLen
	case compress.TopK:
		n += 4 + 12*k
	case compress.Q8:
		n += 16 + denseLen
	case compress.Q16:
		n += 16 + 2*denseLen
	case compress.TopKQ8:
		n += 4 + 16 + 5*k
	case compress.TopKQ16:
		n += 4 + 16 + 6*k
	}
	return n
}

// AppendUpdateFrame appends a complete MsgUpdate frame. For mode None, u
// carries the raw dense parameters and d must be nil; for every other
// mode, d is the compressed delta (as produced by compress.Config
// under the same mode) and u contributes only ClientID, NumSamples, and
// TrainLoss.
func AppendUpdateFrame(dst []byte, u fl.Update, d *compress.Delta, mode compress.Mode) ([]byte, error) {
	var denseLen, k int
	if mode == compress.None {
		if d != nil {
			return nil, fmt.Errorf("wire: mode none takes no delta")
		}
		denseLen = len(u.Params)
	} else {
		if d == nil {
			return nil, fmt.Errorf("wire: mode %s requires a delta", mode)
		}
		if d.Bits != mode.Bits() || (d.Indices == nil) == mode.Sparse() {
			return nil, fmt.Errorf("wire: delta shape does not match mode %s", mode)
		}
		denseLen = d.Len
		k = len(d.Indices)
	}
	dst = AppendHeader(dst, MsgUpdate, mode, UpdatePayloadLen(mode, denseLen, k))
	dst = appendU32(dst, uint32(u.ClientID))
	dst = appendU32(dst, uint32(u.NumSamples))
	dst = appendF64(dst, u.TrainLoss)
	dst = appendU32(dst, uint32(denseLen))
	if mode == compress.None {
		return appendWords(dst, u.Params), nil
	}
	if mode.Sparse() {
		dst = appendU32(dst, uint32(k))
	}
	if mode.Bits() > 0 {
		dst = appendF64(dst, d.Min)
		dst = appendF64(dst, d.Max)
	}
	for _, i := range d.Indices {
		dst = appendU32(dst, uint32(i))
	}
	switch mode.Bits() {
	case 0:
		dst = appendWords(dst, d.Values)
	case 8:
		for _, c := range d.Codes {
			dst = append(dst, byte(c))
		}
	case 16:
		for _, c := range d.Codes {
			dst = binary.LittleEndian.AppendUint16(dst, c)
		}
	}
	return dst, nil
}

// DecodeUpdate parses a MsgUpdate payload under the frame's compression
// mode. Mode None yields a canonical dense raw update; compressed modes
// yield sparse/delta updates (Update.Sparse() true) that the caller must
// run through fl.Densify against the broadcast global — which also
// performs the semantic index validation (range, order, duplicates) this
// structural decode leaves to it. DenseLen is the client's CLAIM about
// the model size; nothing is allocated from it, and fl.Densify checks it
// against the real model.
func DecodeUpdate(mode compress.Mode, payload []byte) (u fl.Update, err error) {
	defer recoverDecode(&err)
	if !mode.Valid() {
		return fl.Update{}, fmt.Errorf("%w: compression mode %d", ErrPayload, mode)
	}
	u, denseLen, err := updateHead(mode, payload, len(payload))
	if err != nil {
		return fl.Update{}, err
	}
	body := payload[updateHeadLen:]
	if mode != compress.None {
		u.DenseLen, u.IsDelta = denseLen, true
	}
	k := denseLen // dense modes carry denseLen values
	if mode.Sparse() {
		if len(body) < 4 {
			return fl.Update{}, fmt.Errorf("%w: sparse body of %d bytes", ErrTruncated, len(body))
		}
		k = int(getU32(body))
		body = body[4:]
	}
	// Exact-size check before any allocation: k and denseLen are
	// attacker-controlled, but from here on every allocation is bounded
	// by the (budget-checked) payload length itself.
	want := UpdatePayloadLen(mode, denseLen, k) - updateHeadLen
	if mode.Sparse() {
		want -= 4
	}
	if len(body) != want {
		return fl.Update{}, fmt.Errorf("%w: %s body of %d bytes, want %d (k=%d, dense=%d)",
			ErrPayload, mode, len(body), want, k, denseLen)
	}
	var min, max float64
	if mode.Bits() > 0 {
		min, max = getF64(body[0:]), getF64(body[8:])
		body = body[16:]
	}
	if mode.Sparse() {
		u.Indices = make([]int, k)
		for j := range u.Indices {
			u.Indices[j] = int(getU32(body[4*j:]))
		}
		body = body[4*k:]
	}
	switch mode.Bits() {
	case 0:
		u.Params = make([]float64, k)
		getWords(u.Params, body)
	case 8:
		codes := make([]uint16, k)
		for j := range codes {
			codes[j] = uint16(body[j])
		}
		u.Params = dequantize(codes, min, max, 8)
	case 16:
		codes := make([]uint16, k)
		for j := range codes {
			codes[j] = binary.LittleEndian.Uint16(body[2*j:])
		}
		u.Params = dequantize(codes, min, max, 16)
	}
	return u, nil
}

// updateHead parses the fixed head of a MsgUpdate payload whose declared
// length is size (head holds min(size, updateHeadLen) bytes); a mode-None
// body must be exactly denseLen float64s.
func updateHead(mode compress.Mode, head []byte, size int) (u fl.Update, denseLen int, err error) {
	if size < updateHeadLen {
		return fl.Update{}, 0, fmt.Errorf("%w: update payload of %d bytes", ErrTruncated, size)
	}
	u.ClientID = int(getU32(head[0:]))
	u.NumSamples = int(int32(getU32(head[4:])))
	u.TrainLoss = getF64(head[8:])
	denseLen = int(getU32(head[16:]))
	if body := size - updateHeadLen; mode == compress.None && body != 8*denseLen {
		return fl.Update{}, 0, fmt.Errorf("%w: dense body of %d bytes for %d params", ErrPayload, body, denseLen)
	}
	return u, denseLen, nil
}

// dequantize expands quantized codes through the compress package's
// affine decode, so wire and in-process reconstructions are bit-identical.
func dequantize(codes []uint16, min, max float64, bits int) []float64 {
	z := compress.Quantized{Codes: codes, Min: min, Max: max, Bits: bits, N: len(codes)}
	return z.Decode()
}

// recoverDecode converts a decoder panic into an error, mirroring the
// checkpoint container's guard: a parser bug on attacker-controlled bytes
// must cost one connection, not the coordinator process.
func recoverDecode(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: decoder panic: %v", ErrPayload, r)
	}
}
