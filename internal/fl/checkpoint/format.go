// Package checkpoint persists federation state durably: a versioned,
// CRC-checksummed container format plus an atomic-write Manager that
// retains the previous snapshot, so a federated run killed at any round
// boundary can resume bit-identically — and a torn or bit-flipped write is
// detected by checksum and falls back to the last good snapshot instead of
// silently resuming from garbage.
//
// The container is deliberately dumb: a fixed 32-byte header followed by a
// gob payload.
//
//	offset  size  field
//	0       8     magic "CIPCKPT1"
//	8       8     kind (8 ASCII bytes naming the payload type)
//	16      4     format version, big-endian uint32
//	20      8     payload length, big-endian uint64
//	28      4     CRC-32C (Castagnoli) of the payload, big-endian
//	32      —     gob-encoded payload
//
// Every field is checked on read before a single payload byte reaches the
// gob decoder, and the declared payload length is bounded by the caller's
// byte budget, so a truncated, corrupted, or hostile file produces a clean
// typed error — never a panic or an unbounded allocation.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

const (
	// Magic identifies a checkpoint-container file.
	Magic = "CIPCKPT1"
	// Version is the current container format version.
	Version = 1

	headerSize = 32
)

// Payload kinds. Each is exactly 8 ASCII bytes — the width of the header's
// kind field — so no padding rules are needed.
const (
	// KindSnapshot is a full federation snapshot (Snapshot).
	KindSnapshot = "fedstate"
	// KindGlobal is a bare global parameter vector (flcli.SaveGlobal).
	KindGlobal = "flglobal"
	// KindArtifact is an experiments.Artifact.
	KindArtifact = "artifact"
	// KindTable is a persisted experiment grid-cell table.
	KindTable = "exptable"
)

// DefaultMaxBytes caps how large a payload a reader will accept when the
// caller passes no explicit budget.
const DefaultMaxBytes = 1 << 30 // 1 GiB

var (
	// ErrNotCheckpoint means the data does not begin with the container
	// magic — it is some other format entirely (readers with legacy
	// formats key their fallback on this).
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint container")
	// ErrCorrupt means the data claims to be a container but fails
	// validation: truncated header or payload, unknown version, length
	// mismatch, CRC mismatch, or an undecodable payload.
	ErrCorrupt = errors.New("checkpoint: corrupt container")
	// ErrWrongKind means a valid container holds a different payload kind
	// than the caller asked for.
	ErrWrongKind = errors.New("checkpoint: wrong payload kind")
	// ErrTooLarge means the container's declared payload exceeds the
	// caller's byte budget.
	ErrTooLarge = errors.New("checkpoint: payload exceeds size budget")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode wraps v, gob-encoded, in a checkpoint container of the given kind.
func Encode(kind string, v any) ([]byte, error) {
	if len(kind) != 8 {
		return nil, fmt.Errorf("checkpoint: kind %q must be exactly 8 bytes", kind)
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, headerSize))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding %s payload: %w", kind, err)
	}
	b := buf.Bytes()
	payload := b[headerSize:]
	copy(b[0:8], Magic)
	copy(b[8:16], kind)
	binary.BigEndian.PutUint32(b[16:20], Version)
	binary.BigEndian.PutUint64(b[20:28], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[28:32], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// DecodeBytes validates a container and gob-decodes its payload into v.
// maxBytes ≤ 0 selects DefaultMaxBytes.
func DecodeBytes(data []byte, kind string, maxBytes int64, v any) error {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if len(data) < 8 || string(data[0:8]) != Magic {
		return ErrNotCheckpoint
	}
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d-byte file is shorter than the %d-byte header",
			ErrCorrupt, len(data), headerSize)
	}
	gotKind := string(data[8:16])
	if ver := binary.BigEndian.Uint32(data[16:20]); ver != Version {
		return fmt.Errorf("%w: unsupported version %d (have %d)", ErrCorrupt, ver, Version)
	}
	plen := binary.BigEndian.Uint64(data[20:28])
	if plen > uint64(maxBytes) {
		return fmt.Errorf("%w: declared payload of %d bytes exceeds budget %d",
			ErrTooLarge, plen, maxBytes)
	}
	if uint64(len(data)-headerSize) != plen {
		return fmt.Errorf("%w: declared payload of %d bytes, have %d",
			ErrCorrupt, plen, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(data[28:32]); got != want {
		return fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCorrupt, got, want)
	}
	if kind != "" && gotKind != kind {
		return fmt.Errorf("%w: container holds %q, want %q", ErrWrongKind, gotKind, kind)
	}
	return decodePayload(payload, gotKind, v)
}

// decodePayload gob-decodes a checksum-verified payload, converting any
// decoder panic (gob is not panic-free on all inputs) into ErrCorrupt so
// callers — and the fuzzer — always see an error.
func decodePayload(payload []byte, kind string, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %s payload decode panicked: %v", ErrCorrupt, kind, r)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding %s payload: %v", ErrCorrupt, kind, err)
	}
	return nil
}

// WriteFile atomically writes a container for v at path: the bytes land in
// a temp file in the same directory, are fsynced, and are renamed over
// path; the directory is fsynced so the rename itself is durable. If path
// already exists it is first rotated to path+".prev", so one prior
// generation always survives a corrupted write.
func WriteFile(path, kind string, v any) error {
	data, err := Encode(kind, v)
	if err != nil {
		return err
	}
	return writeFileBytes(path, data)
}

func writeFileBytes(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("checkpoint: rotating previous snapshot: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: installing %s: %w", path, err)
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path so the rename is durable.
// Some filesystems refuse to fsync directories; that is not fatal.
func syncDir(path string) error {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i]
		if dir == "" {
			dir = "/"
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}

// ReadFile reads and validates the container at path, decoding its payload
// into v. The file size is checked against maxBytes before the contents
// are read, so an oversized file never reaches memory.
func ReadFile(path, kind string, maxBytes int64, v any) error {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() > maxBytes+headerSize {
		return fmt.Errorf("%w: %s is %d bytes, budget %d", ErrTooLarge, path, fi.Size(), maxBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return DecodeBytes(data, kind, maxBytes, v)
}
