package wire

import (
	"fmt"
	"io"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
)

// Streaming decoders: after ReadHeader, a dense round or update body is
// converted straight from the connection into storage its receiver owns,
// one staging chunk at a time. Head parsing and body conversion are the
// byte-slice decoders' own (roundHead, updateHead, getF64s), and
// FuzzDecodeUpdateStream holds the two entry points equal.

// chunkLen is the staging chunk: large enough that a buffered reader
// passes the read through to the connection, small enough to pool cheaply.
const chunkLen = 64 << 10

// readF64s fills dst with the little-endian float64s r delivers next.
func readF64s(r io.Reader, dst []float64, chunk []byte) error {
	for len(dst) > 0 {
		m := min(len(dst), len(chunk)/8)
		if _, err := io.ReadFull(r, chunk[:8*m]); err != nil {
			return err
		}
		getF64s(dst[:m], chunk)
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
	return rd, readF64s(r, rd.Params, chunk)
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
	if err := readF64s(r, dst, chunk); err != nil {
		return fl.Update{}, err
	}
	u.Params = dst
	return u, nil
}
