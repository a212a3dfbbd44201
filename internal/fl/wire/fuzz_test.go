package wire

import (
	"bytes"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// seedGolden seeds a fuzzer with every committed golden frame, so the
// corpus starts from valid wire bytes and mutates outward.
func seedGolden(f *testing.F, add func([]byte)) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.hex"))
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		frame, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			continue
		}
		add(frame)
	}
	if len(files) == 0 {
		f.Fatal("no golden corpus to seed from")
	}
}

// FuzzDecodeFrame hammers the full inbound path a hostile client reaches:
// frame header parse, budget check, payload read, structural update
// decode, densify. The invariants: never panic, and never allocate a
// payload past the byte budget.
func FuzzDecodeFrame(f *testing.F) {
	seedGolden(f, func(b []byte) { f.Add(b, 4096) })
	f.Add([]byte{Magic, Version, MsgUpdate, 0, 0xFF, 0xFF, 0xFF, 0xFF}, 64)
	// The retired v1 round and partial types, with a plausible payload.
	f.Add([]byte{Magic, Version, 1, 0, 12, 0, 0, 0, 3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, 4096)
	f.Add([]byte{Magic, Version, 4, 0, 24, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0}, 4096)
	f.Fuzz(func(t *testing.T, data []byte, budget int) {
		// Always a real budget in [1, 1 MiB]: Header treats 0 as "no
		// limit", which would let a hostile length prefix ask the harness
		// itself for gigabytes.
		if budget < 0 {
			budget = -budget
		}
		budget = 1 + budget%(1<<20)
		r := bytes.NewReader(data)
		typ, mode, n, err := NewReader(r).Header(budget)
		if err != nil {
			return // any error is acceptable; a panic is not
		}
		if n > budget {
			t.Fatalf("payload of %d bytes escaped budget %d", n, budget)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		switch typ {
		case MsgUpdate:
			u, err := DecodeUpdate(mode, payload)
			if err != nil {
				return
			}
			// Structural decode may expand ≤8x (int8 codes to float64);
			// anything more means an attacker-controlled length slipped
			// through the size arithmetic.
			if len(u.Params) > len(payload) || len(u.Indices) > len(payload) {
				t.Fatalf("update decode expanded %d payload bytes to %d params / %d indices",
					len(payload), len(u.Params), len(u.Indices))
			}
			// Densify must validate-or-error, never panic, whatever the
			// decoded shape claims.
			global := make([]float64, 64)
			if dense, err := fl.Densify(u, global); err == nil && dense.Sparse() {
				t.Fatal("densify returned a sparse update without error")
			}
		case MsgPartial2:
			if p, err := DecodePartial2(payload); err == nil {
				checkPartial2Expansion(t, p, len(payload))
				// Semantic validation must classify-or-error, never panic.
				_ = fl.ValidatePartial(p, len(p.Sum), 1e6)
			}
		case MsgRound2:
			if r, err := DecodeRound2(payload); err == nil {
				// A successful round decode allocates only what the
				// payload itself carried.
				if 8*len(r.Params) > len(payload) {
					t.Fatalf("round decode expanded %d payload bytes to %d params",
						len(payload), len(r.Params))
				}
			}
		}
	})
}

// checkPartial2Expansion asserts a decoded partial allocated no more
// floats than the payload itself carried (8 bytes each), sketch included.
func checkPartial2Expansion(t *testing.T, p fl.Partial, payloadLen int) {
	t.Helper()
	floats := len(p.Sum)
	if p.Sketch != nil {
		floats += len(p.Sketch.Keys)
		for _, row := range p.Sketch.Vals {
			floats += len(row)
		}
	}
	if 8*floats > payloadLen {
		t.Fatalf("partial2 decode expanded %d payload bytes to %d floats", payloadLen, floats)
	}
}

// FuzzDecodePartial hammers the partial decoder directly (no frame
// header) — the bytes a hostile or torn child connection can feed its
// parent's partial exchange. Invariants: never panic, never allocate
// beyond the payload's own size arithmetic, and semantic validation
// classifies without panicking whatever the structural decode admits.
func FuzzDecodePartial(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgPartial2 {
			f.Add(b[HeaderLen:])
		}
	})
	f.Add([]byte{})
	sketchless := AppendPartial2Frame(nil, fl.Partial{Round: 3, LeafID: 1, Count: 2, Weight: 4, Sum: []float64{1, 2}})
	f.Add(sketchless[HeaderLen:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodePartial2(payload)
		if err != nil {
			return
		}
		checkPartial2Expansion(t, p, len(payload))
		if err := fl.ValidatePartial(p, len(p.Sum), 1e6); err == nil && p.Sketch != nil {
			// A validated sketch must be structurally sound enough to
			// merge without panicking.
			m := robust.NewSketch(p.Sketch.Cap)
			if err := m.Merge(p.Sketch); err != nil && p.Sketch.Dim() == m.Dim() {
				t.Fatalf("validated sketch failed to merge: %v", err)
			}
		}
	})
}

// FuzzDecompressUpdate hammers the compressed-update payload decoder for
// each mode directly (no frame header), plus the densify step — the
// decompression path of the tentpole. Same invariants: no panic, no
// over-allocation past the payload's own size arithmetic.
func FuzzDecompressUpdate(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgUpdate {
			f.Add(b[3], b[HeaderLen:])
		}
	})
	f.Fuzz(func(t *testing.T, modeByte byte, payload []byte) {
		mode := compress.Mode(modeByte)
		u, err := DecodeUpdate(mode, payload)
		if err != nil {
			return
		}
		if !mode.Valid() {
			t.Fatalf("invalid mode %d decoded successfully", modeByte)
		}
		if len(u.Params) > len(payload)+1 || len(u.Indices) > len(payload)+1 {
			t.Fatalf("mode %s expanded %d payload bytes to %d params / %d indices",
				mode, len(payload), len(u.Params), len(u.Indices))
		}
		global := make([]float64, 32)
		dense, err := fl.Densify(u, global)
		if err != nil {
			return
		}
		if u.Sparse() && len(dense.Params) != len(global) {
			t.Fatalf("densify produced %d params for a %d-param model",
				len(dense.Params), len(global))
		}
	})
}
