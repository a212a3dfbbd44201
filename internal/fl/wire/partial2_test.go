package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// TestPartial2FrameRoundTrip drives the v2 partial codec through random
// shapes: with/without sketch, degraded or not, empty and saturated
// reservoirs. Decode(Encode(p)) must reproduce every field bit-exactly.
func TestPartial2FrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(16)
		p := fl.Partial{
			LeafID:       rng.Intn(100),
			Round:        rng.Intn(1000),
			Sum:          make([]float64, dim),
			Weight:       1 + rng.Float64()*100,
			Count:        1 + rng.Intn(50),
			ExpectWeight: 100 + rng.Float64()*100,
			Degraded:     rng.Intn(2) == 0,
		}
		for i := range p.Sum {
			p.Sum[i] = rng.NormFloat64()
		}
		if rng.Intn(3) > 0 {
			sk := robust.NewSketch(1 + rng.Intn(8))
			rows := rng.Intn(2 * sk.Cap)
			for r := 0; r < rows; r++ {
				row := make([]float64, dim)
				for i := range row {
					row[i] = rng.NormFloat64()
				}
				sk.Add(robust.KeyClient(r), row)
			}
			p.Sketch = sk
		}

		frame := AppendPartial2Frame(nil, p)
		typ, _, payload, err := readFrame(bytes.NewReader(frame), len(frame))
		if err != nil {
			t.Fatalf("trial %d: reading frame: %v", trial, err)
		}
		if typ != MsgPartial2 {
			t.Fatalf("trial %d: frame type %d", trial, typ)
		}
		got, err := DecodePartial2(payload)
		if err != nil {
			t.Fatalf("trial %d: DecodePartial2: %v", trial, err)
		}
		if got.LeafID != p.LeafID || got.Round != p.Round || got.Count != p.Count ||
			got.Weight != p.Weight || got.ExpectWeight != p.ExpectWeight || got.Degraded != p.Degraded {
			t.Fatalf("trial %d: header fields diverged: got %+v want %+v", trial, got, p)
		}
		for i := range p.Sum {
			if got.Sum[i] != p.Sum[i] {
				t.Fatalf("trial %d: sum[%d] %v != %v", trial, i, got.Sum[i], p.Sum[i])
			}
		}
		if (got.Sketch == nil) != (p.Sketch == nil) {
			t.Fatalf("trial %d: sketch presence diverged", trial)
		}
		if p.Sketch != nil {
			if got.Sketch.Cap != p.Sketch.Cap || got.Sketch.Rows != p.Sketch.Rows ||
				len(got.Sketch.Keys) != len(p.Sketch.Keys) {
				t.Fatalf("trial %d: sketch shape diverged: got %+v want %+v", trial, got.Sketch, p.Sketch)
			}
			for i, k := range p.Sketch.Keys {
				if got.Sketch.Keys[i] != k {
					t.Fatalf("trial %d: sketch key %d diverged", trial, i)
				}
				for j, v := range p.Sketch.Vals[i] {
					if got.Sketch.Vals[i][j] != v {
						t.Fatalf("trial %d: sketch row %d coord %d diverged", trial, i, j)
					}
				}
			}
		}
	}
}

func TestRound2FrameRoundTrip(t *testing.T) {
	want := Round2{
		Round: 7, Durable: -1, SampleFrac: 0.25, SampleSeed: -12345,
		SketchCap: 64, Params: []float64{0.5, -1.25, 3},
	}
	frame := AppendRound2Frame(nil, want)
	typ, _, payload, err := readFrame(bytes.NewReader(frame), len(frame))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgRound2 {
		t.Fatalf("frame type %d", typ)
	}
	got, err := DecodeRound2(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Durable != want.Durable ||
		got.SampleFrac != want.SampleFrac || got.SampleSeed != want.SampleSeed ||
		got.SketchCap != want.SketchCap || len(got.Params) != len(want.Params) {
		t.Fatalf("got %+v want %+v", got, want)
	}
	for i := range want.Params {
		if got.Params[i] != want.Params[i] {
			t.Fatalf("param %d diverged", i)
		}
	}
}

// TestDecodePartial2RejectsSizeLies covers the structural guards: declared
// counts beyond what the payload can carry must be rejected before any
// allocation proportional to the claim.
func TestDecodePartial2RejectsSizeLies(t *testing.T) {
	good := AppendPartial2Frame(nil, fl.Partial{
		LeafID: 1, Round: 1, Sum: []float64{1, 2}, Weight: 3, Count: 1,
	})[HeaderLen:]
	if _, err := DecodePartial2(good); err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
	// Inflate the parameter count field without supplying bytes.
	lie := append([]byte(nil), good...)
	lie[32] = 0xFF
	lie[33] = 0xFF
	lie[34] = 0xFF
	lie[35] = 0x7F
	if _, err := DecodePartial2(lie); err == nil {
		t.Fatal("inflated param count decoded")
	}
	// Truncated head.
	if _, err := DecodePartial2(good[:10]); err == nil {
		t.Fatal("truncated payload decoded")
	}
}
