package wire

import (
	"fmt"
	"io"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// Streaming decoders: after ReadHeader, a round, dense update or partial
// body is converted straight from the connection into storage its receiver
// owns, one staging chunk at a time. DecodeRound2 and DecodePartial2 are
// these decoders over a whole payload; DecodeUpdate shares updateHead and
// getF64s with ReadUpdate. FuzzDecodeUpdateStream and
// FuzzDecodePartialStream hold each pair equal whatever the chunking.

// chunkLen is the staging chunk: large enough that a buffered reader
// passes the read through to the connection, small enough to pool cheaply.
const chunkLen = 64 << 10

// readWords fills dst with the little-endian 8-byte words r delivers next,
// converted by get (getF64s, getU64s).
func readWords[T any](r io.Reader, dst []T, chunk []byte, get func([]T, []byte)) error {
	for len(dst) > 0 {
		m := min(len(dst), len(chunk)/8)
		if _, err := io.ReadFull(r, chunk[:8*m]); err != nil {
			return err
		}
		get(dst[:m], chunk)
		dst = dst[m:]
	}
	return nil
}

// ReadRound reads the size-byte payload of a round frame (size from
// ReadHeader). The parameters land in params' storage — the caller's
// buffer, reused round after round — when it can hold them, else in a
// fresh vector.
func ReadRound(r io.Reader, size int, params []float64) (rd Round2, err error) {
	defer recoverDecode(&err)
	chunk := GetBuffer(chunkLen)
	defer PutBuffer(chunk)
	head := chunk[:min(size, round2HeadLen)]
	if _, err := io.ReadFull(r, head); err != nil {
		return Round2{}, err
	}
	rd, n, err := roundHead(head, size)
	if err != nil {
		return Round2{}, err
	}
	if cap(params) < n {
		params = make([]float64, n)
	}
	rd.Params = params[:n]
	return rd, readWords(r, rd.Params, chunk, getF64s)
}

// ReadUpdate reads the size-byte payload of a MsgUpdate frame. A dense
// (mode None) body is converted into dst, which becomes the update's
// Params; a head declaring another length than len(dst) is rejected before
// the body is read, so a hostile denseLen allocates nothing. A compressed
// body — small by construction — goes whole through a pooled buffer and
// DecodeUpdate; the caller densifies it into dst (fl.DensifyInto).
func ReadUpdate(r io.Reader, mode compress.Mode, size int, dst []float64) (u fl.Update, err error) {
	defer recoverDecode(&err)
	if mode != compress.None {
		buf := GetBuffer(size)
		defer PutBuffer(buf)
		if _, err := io.ReadFull(r, buf); err != nil {
			return fl.Update{}, err
		}
		return DecodeUpdate(mode, buf)
	}
	chunk := GetBuffer(chunkLen)
	defer PutBuffer(chunk)
	head := chunk[:min(size, updateHeadLen)]
	if _, err := io.ReadFull(r, head); err != nil {
		return fl.Update{}, err
	}
	u, denseLen, err := updateHead(mode, head, size)
	if err != nil {
		return fl.Update{}, err
	}
	if denseLen != len(dst) {
		return fl.Update{}, fmt.Errorf("%w: dense update of %d params, want %d", ErrPayload, denseLen, len(dst))
	}
	if err := readWords(r, dst, chunk, getF64s); err != nil {
		return fl.Update{}, err
	}
	u.Params = dst
	return u, nil
}

// ReadPartial reads the size-byte payload of a MsgPartial2 frame. The sums
// land in sum (a head declaring another length is refused before the body
// is read), each retained sketch row in a len(sum)-long vector from row,
// called only once every declared length has been checked against size.
// Rows taken before a body turns out cut short are the caller's.
func ReadPartial(r io.Reader, size int, sum []float64, row func() []float64) (p fl.Partial, err error) {
	defer recoverDecode(&err)
	chunk := GetBuffer(chunkLen)
	defer PutBuffer(chunk)
	head := chunk[:min(size, partial2HeadLen)]
	if _, err := io.ReadFull(r, head); err != nil {
		return fl.Partial{}, err
	}
	p, n, hasSketch, err := partialHead(head, size)
	if err != nil {
		return fl.Partial{}, err
	}
	if n != len(sum) {
		return fl.Partial{}, fmt.Errorf("%w: partial of %d params, want %d", ErrPayload, n, len(sum))
	}
	if err := readWords(r, sum, chunk, getF64s); err != nil {
		return fl.Partial{}, err
	}
	if p.Sum = sum; !hasSketch {
		return p, nil
	}
	head = chunk[:sketchHeadLen]
	if _, err := io.ReadFull(r, head); err != nil {
		return fl.Partial{}, err
	}
	rest, k := size-partial2HeadLen-8*n, int(getU32(head[8:]))
	if k > rest/8 || size != Partial2PayloadLen(n, k, true) {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch of %d×%d in %d bytes", ErrPayload, k, n, size)
	}
	sk := &robust.Sketch{Cap: int(getU32(head[0:])), Rows: int(int32(getU32(head[4:]))),
		Keys: make([]uint64, k), Vals: make([][]float64, k)}
	if err := readWords(r, sk.Keys, chunk, getU64s); err != nil {
		return fl.Partial{}, err
	}
	for i := range sk.Vals {
		sk.Vals[i] = row()
		if err := readWords(r, sk.Vals[i], chunk, getF64s); err != nil {
			return fl.Partial{}, err
		}
	}
	p.Sketch = sk
	return p, nil
}
