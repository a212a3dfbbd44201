// Package wire is the federation's only round protocol: length-prefixed,
// versioned, little-endian frames carrying rounds, updates and tree
// partials with zero reflection on the hot path. Only the hello/welcome
// handshake in front of them is gob (internal/fl/transport).
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       1     magic 0xCF
//	1       1     version (currently 1)
//	2       1     frame type (2=update, 3=done, 5=partial, 6=round)
//	3       1     compression mode (compress.Mode; 0 except on updates)
//	4       4     payload length, uint32
//	8       n     payload
//
// Types 1 and 4 are retired layouts and rejected like any unknown type.
//
// Payloads (see codec.go) are fixed arithmetic over the header fields:
// every length is validated against the declared payload size BEFORE any
// allocation, the whole decode path is bounded by the caller's byte
// budget, and — like the checkpoint container decoder — DecodeFrame
// converts any latent panic into an error, because these bytes arrive
// from the least-trusted peer in the system.
//
// Dense vectors are read straight from the connection into the bytes of
// storage their receiver owns, and encoded as one copy of those bytes
// (stream.go, codec.go). Each connection's Reader owns its frames' header
// and head bytes; a compressed update body is read into bytes its caller
// owns. DESIGN.md §12.5 has the table.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/cip-fl/cip/internal/fl/compress"
)

const (
	// Magic is the first byte of every frame.
	Magic = 0xCF
	// Version is the codec version this package speaks. Decoders reject
	// other versions.
	Version = 1
	// HeaderLen is the fixed frame-header size.
	HeaderLen = 8
)

// Frame types.
const (
	// MsgUpdate carries one client's (possibly compressed) update.
	MsgUpdate = 2
	// MsgDone tells a client the federation is complete.
	MsgDone = 3
	// MsgPartial2 carries one tree node's pre-division weighted sums for a
	// round, its coverage metadata (expected weight, degraded flag) and an
	// optional mergeable row sketch for robust tree aggregation.
	MsgPartial2 = 5
	// MsgRound2 is the round broadcast, sent to clients and child
	// aggregators alike: the global parameters plus the root-coordinated
	// sample fraction/seed and the sketch capacity a subtree builds at.
	MsgRound2 = 6
)

// CodecBinary names this package's codec in the hello/welcome handshake;
// a peer that does not offer it is refused.
const CodecBinary = "binary"

// Errors the decode path classifies. All are terminal for the connection;
// match with errors.Is.
var (
	// ErrMagic means the stream is not positioned at a frame.
	ErrMagic = errors.New("wire: bad magic byte")
	// ErrVersion means the peer speaks a codec version we do not.
	ErrVersion = errors.New("wire: unsupported codec version")
	// ErrFrameType means an unknown frame type.
	ErrFrameType = errors.New("wire: unknown frame type")
	// ErrBudget means a declared payload exceeds the receive byte budget.
	ErrBudget = errors.New("wire: frame exceeds byte budget")
	// ErrTruncated means a payload is shorter than its fields require.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrPayload means a payload's internal lengths are inconsistent.
	ErrPayload = errors.New("wire: malformed payload")
)

// Reader reads the frames of one connection. It owns the bytes a frame is
// parsed from before its body — the 8-byte header and the payload's fixed
// head, at most 36 bytes — so reading a frame allocates neither; bodies go
// to storage the caller supplies (stream.go). A Reader serves one
// goroutine at a time.
type Reader struct {
	r    io.Reader
	hdr  [HeaderLen]byte
	head [partial2HeadLen]byte
}

// NewReader returns a frame reader over r, the connection's one buffered
// reader when a handshake reads through it too.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Header reads and checks one frame header. The declared payload length n
// is checked against budget (≤ 0 means no limit) before anything is read
// or allocated for it, so a hostile 4 GiB length prefix costs nothing. The
// n payload bytes follow: Round, Update or Partial consumes them.
func (fr *Reader) Header(budget int) (typ byte, mode compress.Mode, n int, err error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return 0, 0, 0, err
	}
	if hdr[0] != Magic {
		return 0, 0, 0, fmt.Errorf("%w: 0x%02x", ErrMagic, hdr[0])
	}
	if hdr[1] != Version {
		return 0, 0, 0, fmt.Errorf("%w: %d (speaking %d)", ErrVersion, hdr[1], Version)
	}
	typ = hdr[2]
	if typ != MsgUpdate && typ != MsgDone && typ != MsgPartial2 && typ != MsgRound2 {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrFrameType, typ)
	}
	mode = compress.Mode(hdr[3])
	if !mode.Valid() {
		return 0, 0, 0, fmt.Errorf("%w: compression mode %d", ErrPayload, hdr[3])
	}
	size := binary.LittleEndian.Uint32(hdr[4:8])
	if budget > 0 && uint64(size) > uint64(budget) {
		return 0, 0, 0, fmt.Errorf("%w: payload of %d bytes, budget %d", ErrBudget, size, budget)
	}
	return typ, mode, int(size), nil
}

// AppendHeader appends a frame header to dst and returns the extended
// slice, grown once for the n payload bytes that must follow: a frame
// appended to a reused buffer (buf[:0]) allocates only when it outgrows it.
func AppendHeader(dst []byte, typ byte, mode compress.Mode, n int) []byte {
	dst = slices.Grow(dst, HeaderLen+n)
	var hdr [HeaderLen]byte
	hdr[0] = Magic
	hdr[1] = Version
	hdr[2] = typ
	hdr[3] = byte(mode)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	return append(dst, hdr[:]...)
}
