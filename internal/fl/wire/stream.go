package wire

import (
	"fmt"
	"io"
	"slices"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// Streaming decoders: after Reader.Header, a round, dense update or
// partial body is read from the connection straight into the bytes of
// storage its receiver owns, one io.ReadFull per vector, after a fixed
// head read into the Reader's own bytes. DecodeRound2 and DecodePartial2
// are these decoders over a whole payload; DecodeUpdate shares updateHead
// and the word conversion with Reader.Update. FuzzDecodeUpdateStream and
// FuzzDecodePartialStream hold each pair equal whatever the reader's
// chunking.

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
// the Reader's head bytes and returns the n-byte head. The head parsers
// look at no byte of it when size < n.
func (fr *Reader) readHead(size, n int) ([]byte, error) {
	head := fr.head[:n]
	_, err := io.ReadFull(fr.r, head[:min(size, n)])
	return head, err
}

// Round reads the size-byte payload of a round frame (size from Header).
// The parameters land in params' storage — the caller's buffer, reused
// round after round — when it can hold them, else in a fresh vector.
func (fr *Reader) Round(size int, params []float64) (rd Round2, err error) {
	defer recoverDecode(&err)
	head, err := fr.readHead(size, round2HeadLen)
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
	return rd, readWords(fr.r, rd.Params)
}

// Update reads the size-byte payload of a MsgUpdate frame. A dense (mode
// None) body is read into dst, which becomes the update's Params (partly
// written when the body is cut short); a head declaring another length
// than len(dst) is rejected before the body is read, so a hostile denseLen
// allocates nothing. A compressed body — small by construction — is read
// whole into *body, the caller's bytes, grown when they cannot hold it and
// reused otherwise, and parsed by DecodeUpdate; the caller densifies it
// into dst (fl.DensifyInto).
func (fr *Reader) Update(mode compress.Mode, size int, dst []float64, body *[]byte) (u fl.Update, err error) {
	defer recoverDecode(&err)
	if mode != compress.None {
		if cap(*body) < size {
			*body = make([]byte, size)
		}
		b := (*body)[:size]
		if _, err := io.ReadFull(fr.r, b); err != nil {
			return fl.Update{}, err
		}
		return DecodeUpdate(mode, b)
	}
	head, err := fr.readHead(size, updateHeadLen)
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
	return u, readWords(fr.r, dst)
}

// Partial reads the size-byte payload of a MsgPartial2 frame. The sums
// land in sum (a head declaring another length is refused before the body
// is read). A sketch lands in sk, reset and refilled in its own storage,
// each retained row in a len(sum)-long vector from row, called only once
// every declared length has been checked against size. A body cut short
// leaves sum or the last row partly written; rows taken before that are
// the caller's.
func (fr *Reader) Partial(size int, sum []float64, sk *robust.Sketch, row func() []float64) (p fl.Partial, err error) {
	defer recoverDecode(&err)
	head, err := fr.readHead(size, partial2HeadLen)
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
	if err := readWords(fr.r, sum); err != nil {
		return fl.Partial{}, err
	}
	if p.Sum = sum; !hasSketch {
		return p, nil
	}
	if _, err := io.ReadFull(fr.r, head[:sketchHeadLen]); err != nil {
		return fl.Partial{}, err
	}
	rest, k := size-partial2HeadLen-8*n, int(getU32(head[8:]))
	if k > rest/8 || size != Partial2PayloadLen(n, k, true) {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch of %d×%d in %d bytes", ErrPayload, k, n, size)
	}
	sk.Reset(int(getU32(head[0:])))
	sk.Rows = int(int32(getU32(head[4:])))
	sk.Keys, sk.Vals = slices.Grow(sk.Keys, k)[:k], slices.Grow(sk.Vals, k)[:k]
	if err := readWords(fr.r, sk.Keys); err != nil {
		return fl.Partial{}, err
	}
	for i := range sk.Vals {
		sk.Vals[i] = row()
		if err := readWords(fr.r, sk.Vals[i]); err != nil {
			return fl.Partial{}, err
		}
	}
	p.Sketch = sk
	return p, nil
}
