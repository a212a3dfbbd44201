package wire

import (
	"fmt"
	"io"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// Streaming decoders: after ReadHeader, a round, dense update or partial
// body is read from the connection straight into the bytes of storage its
// receiver owns, one io.ReadFull per vector. DecodeRound2 and
// DecodePartial2 are these decoders over a whole payload; DecodeUpdate
// shares updateHead and the word conversion with ReadUpdate.
// FuzzDecodeUpdateStream and FuzzDecodePartialStream hold each pair equal
// whatever the reader's chunking.

// readWords fills dst with the next 8·len(dst) wire bytes r delivers,
// read into dst's own storage. A body cut short leaves dst partly written.
func readWords[T word](r io.Reader, dst []T) error {
	b := wordBytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	swapWords(b)
	return nil
}

// readHead reads the first min(size, n) bytes of a size-byte payload into
// a pooled n-byte buffer, which the caller returns with PutBuffer. The
// head parsers look at no byte of it when size < n.
func readHead(r io.Reader, size, n int) ([]byte, error) {
	head := GetBuffer(n)
	_, err := io.ReadFull(r, head[:min(size, n)])
	return head, err
}

// ReadRound reads the size-byte payload of a round frame (size from
// ReadHeader). The parameters land in params' storage — the caller's
// buffer, reused round after round — when it can hold them, else in a
// fresh vector.
func ReadRound(r io.Reader, size int, params []float64) (rd Round2, err error) {
	defer recoverDecode(&err)
	head, err := readHead(r, size, round2HeadLen)
	defer PutBuffer(head)
	if err != nil {
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
	return rd, readWords(r, rd.Params)
}

// ReadUpdate reads the size-byte payload of a MsgUpdate frame. A dense
// (mode None) body is read into dst, which becomes the update's Params
// (partly written when the body is cut short); a head declaring another
// length than len(dst) is rejected before the body is read, so a hostile
// denseLen allocates nothing. A compressed body — small by construction —
// goes whole through a pooled buffer and DecodeUpdate; the caller
// densifies it into dst (fl.DensifyInto).
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
	head, err := readHead(r, size, updateHeadLen)
	defer PutBuffer(head)
	if err != nil {
		return fl.Update{}, err
	}
	u, denseLen, err := updateHead(mode, head, size)
	if err != nil {
		return fl.Update{}, err
	}
	if denseLen != len(dst) {
		return fl.Update{}, fmt.Errorf("%w: dense update of %d params, want %d", ErrPayload, denseLen, len(dst))
	}
	u.Params = dst
	return u, readWords(r, dst)
}

// ReadPartial reads the size-byte payload of a MsgPartial2 frame. The sums
// land in sum (a head declaring another length is refused before the body
// is read), each retained sketch row in a len(sum)-long vector from row,
// called only once every declared length has been checked against size.
// A body cut short leaves sum or the last row partly written; rows taken
// before that are the caller's.
func ReadPartial(r io.Reader, size int, sum []float64, row func() []float64) (p fl.Partial, err error) {
	defer recoverDecode(&err)
	head, err := readHead(r, size, partial2HeadLen)
	defer PutBuffer(head)
	if err != nil {
		return fl.Partial{}, err
	}
	p, n, hasSketch, err := partialHead(head, size)
	if err != nil {
		return fl.Partial{}, err
	}
	if n != len(sum) {
		return fl.Partial{}, fmt.Errorf("%w: partial of %d params, want %d", ErrPayload, n, len(sum))
	}
	if err := readWords(r, sum); err != nil {
		return fl.Partial{}, err
	}
	if p.Sum = sum; !hasSketch {
		return p, nil
	}
	if _, err := io.ReadFull(r, head[:sketchHeadLen]); err != nil {
		return fl.Partial{}, err
	}
	rest, k := size-partial2HeadLen-8*n, int(getU32(head[8:]))
	if k > rest/8 || size != Partial2PayloadLen(n, k, true) {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch of %d×%d in %d bytes", ErrPayload, k, n, size)
	}
	sk := &robust.Sketch{Cap: int(getU32(head[0:])), Rows: int(int32(getU32(head[4:]))),
		Keys: make([]uint64, k), Vals: make([][]float64, k)}
	if err := readWords(r, sk.Keys); err != nil {
		return fl.Partial{}, err
	}
	for i := range sk.Vals {
		sk.Vals[i] = row()
		if err := readWords(r, sk.Vals[i]); err != nil {
			return fl.Partial{}, err
		}
	}
	p.Sketch = sk
	return p, nil
}
