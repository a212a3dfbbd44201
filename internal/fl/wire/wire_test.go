package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
)

func testVector(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// allModes is every codec mode with a sensible config for a small vector.
func allModes() []compress.Config {
	return []compress.Config{
		{Mode: compress.None},
		{Mode: compress.TopK, TopKFrac: 0.25},
		{Mode: compress.Q8},
		{Mode: compress.Q16},
		{Mode: compress.TopKQ8, TopKFrac: 0.25},
		{Mode: compress.TopKQ16, TopKFrac: 0.25},
	}
}

// readFrame reads one whole frame the way a caller of Reader.Header does: the
// checked header, then exactly its n payload bytes.
func readFrame(r io.Reader, budget int) (typ byte, mode compress.Mode, payload []byte, err error) {
	typ, mode, n, err := NewReader(r).Header(budget)
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return typ, mode, payload, nil
}

func TestRoundFrameRoundTrip(t *testing.T) {
	params := testVector(37, 1)
	frame := AppendRoundFrame(nil, 12, -1, params)
	typ, mode, payload, err := readFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgRound2 || mode != compress.None {
		t.Fatalf("frame header = type %d mode %d", typ, mode)
	}
	round, durable, got, err := DecodeRound(payload)
	if err != nil {
		t.Fatal(err)
	}
	if round != 12 || durable != -1 {
		t.Fatalf("round,durable = %d,%d want 12,-1", round, durable)
	}
	for i := range params {
		if got[i] != params[i] {
			t.Fatalf("param %d: %v != %v", i, got[i], params[i])
		}
	}
}

func TestDoneFrameRoundTrip(t *testing.T) {
	typ, _, payload, err := readFrame(bytes.NewReader(AppendDoneFrame(nil)), 16)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgDone || len(payload) != 0 {
		t.Fatalf("done frame: type %d, %d payload bytes", typ, len(payload))
	}
}

// TestUpdateFrameRoundTrip proves every mode's wire round-trip is exact:
// the decoded update, densified against the global, must equal the
// compressed delta's in-process reconstruction bit for bit. That identity
// is what makes the TCP path and the in-process Bank path (and therefore
// checkpoint resume across them) agree.
func TestUpdateFrameRoundTrip(t *testing.T) {
	global := testVector(64, 2)
	params := testVector(64, 3)
	for _, cfg := range allModes() {
		cfg := cfg.WithDefaults()
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			u := fl.Update{ClientID: 7, NumSamples: 41, TrainLoss: 0.625}
			var d *compress.Delta
			var wantDense []float64
			if cfg.Mode == compress.None {
				u.Params = params
				wantDense = params
			} else {
				delta := make([]float64, len(params))
				for i := range delta {
					delta[i] = params[i] - global[i]
				}
				var err error
				d, err = cfg.Compress(delta)
				if err != nil {
					t.Fatal(err)
				}
				dec := d.Decode()
				wantDense = make([]float64, len(global))
				for i := range wantDense {
					wantDense[i] = global[i] + dec[i]
				}
			}
			frame, err := AppendUpdateFrame(nil, u, d, cfg.Mode)
			if err != nil {
				t.Fatal(err)
			}
			typ, mode, payload, err := readFrame(bytes.NewReader(frame), len(frame))
			if err != nil {
				t.Fatal(err)
			}
			if typ != MsgUpdate || mode != cfg.Mode {
				t.Fatalf("frame header = type %d mode %s", typ, mode)
			}
			got, err := DecodeUpdate(mode, payload)
			if err != nil {
				t.Fatal(err)
			}
			if got.ClientID != 7 || got.NumSamples != 41 || got.TrainLoss != 0.625 {
				t.Fatalf("update header = %+v", got)
			}
			dense, err := fl.Densify(got, global)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantDense {
				if dense.Params[i] != wantDense[i] {
					t.Fatalf("%s: param %d: wire %v, in-process %v",
						cfg.Mode, i, dense.Params[i], wantDense[i])
				}
			}
			if cfg.Mode != compress.None {
				// The frame body should be exactly what Delta.WireBytes
				// promises (plus the fixed 20-byte update header).
				if want := d.WireBytes() + 20; len(payload) != want {
					t.Fatalf("%s: payload %d bytes, WireBytes promises %d",
						cfg.Mode, len(payload), want)
				}
			}
		})
	}

	// The compression line: at a realistic 200,000-parameter model the
	// headline topk8 frame (DefaultTopKFrac, int8 codes) must be at least
	// 10x smaller than the dense frame it replaces.
	const dim = 200_000
	global, params = testVector(dim, 4), testVector(dim, 5)
	u := fl.Update{ClientID: 1, NumSamples: 64, TrainLoss: 0.5, Params: params}
	dense, err := AppendUpdateFrame(nil, u, nil, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	delta := make([]float64, dim)
	for i := range delta {
		delta[i] = params[i] - global[i]
	}
	d, err := compress.Config{Mode: compress.TopKQ8, TopKFrac: compress.DefaultTopKFrac}.Compress(delta)
	if err != nil {
		t.Fatal(err)
	}
	u.Params = nil
	topk8, err := AppendUpdateFrame(nil, u, d, compress.TopKQ8)
	if err != nil {
		t.Fatal(err)
	}
	if len(dense) < 10*len(topk8) {
		t.Fatalf("topk8 frame is %d bytes vs dense %d: %.1fx smaller, want ≥10x",
			len(topk8), len(dense), float64(len(dense))/float64(len(topk8)))
	}
}

func TestReadFrameRejects(t *testing.T) {
	params := testVector(8, 4)
	good := AppendRoundFrame(nil, 0, -1, params)

	t.Run("budget", func(t *testing.T) {
		_, _, _, err := readFrame(bytes.NewReader(good), 8)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x00
		if _, _, _, err := readFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrMagic) {
			t.Fatalf("err = %v, want ErrMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 99
		if _, _, _, err := readFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	// 9 was never a frame type; 1 and 4 are the retired v1 round and
	// partial layouts, which must be refused before their payload is read.
	for name, typ := range map[string]byte{"type": 9, "retired-round": 1, "retired-partial": 4} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			bad[2] = typ
			if _, _, _, err := readFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrFrameType) {
				t.Fatalf("err = %v, want ErrFrameType", err)
			}
		})
	}
	t.Run("mode", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[3] = 200
		if _, _, _, err := readFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrPayload) {
			t.Fatalf("err = %v, want ErrPayload", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, _, err := readFrame(bytes.NewReader(good[:len(good)-3]), 0); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
}

// TestReadHeaderWideBudget pins the budget comparison to 64 bits: a budget
// of 4 GiB or more must not wrap to a small uint32 and refuse an honest
// frame (a robust tree's partial budget, K·8·(params+1), reaches it at
// K = 64 and 8,388,608 parameters).
func TestReadHeaderWideBudget(t *testing.T) {
	hdr := AppendHeader(nil, MsgUpdate, compress.None, 16)
	for _, budget := range []int{1 << 32, 1<<32 + 8} {
		_, _, n, err := NewReader(bytes.NewReader(hdr)).Header(budget)
		if err != nil || n != 16 {
			t.Fatalf("budget %d: n = %d, err = %v; want 16, nil", budget, n, err)
		}
	}
}

func TestDecodeUpdateRejectsSizeLies(t *testing.T) {
	u := fl.Update{ClientID: 1, NumSamples: 10, Params: testVector(16, 5)}
	frame, err := AppendUpdateFrame(nil, u, nil, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[HeaderLen:]

	// Lie about denseLen: body no longer matches.
	bad := append([]byte(nil), payload...)
	bad[16] = 0xFF
	if _, err := DecodeUpdate(compress.None, bad); !errors.Is(err, ErrPayload) {
		t.Fatalf("dense-length lie: err = %v, want ErrPayload", err)
	}
	// Truncated header.
	if _, err := DecodeUpdate(compress.None, payload[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: err = %v, want ErrTruncated", err)
	}
	// Sparse k lie.
	cfg := compress.Config{Mode: compress.TopK, TopKFrac: 0.5}
	d, err := cfg.Compress(testVector(16, 6))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := AppendUpdateFrame(nil, fl.Update{ClientID: 1}, d, compress.TopK)
	if err != nil {
		t.Fatal(err)
	}
	sp := append([]byte(nil), sf[HeaderLen:]...)
	sp[20] = 0xEE // k prefix
	if _, err := DecodeUpdate(compress.TopK, sp); !errors.Is(err, ErrPayload) {
		t.Fatalf("k lie: err = %v, want ErrPayload", err)
	}
}

// TestDecodeUpdateQuantizedNaNRangeSurfacesDownstream: hostile min/max in
// a quantized body decode to non-finite params, which fl validation (not
// the structural decode) rejects.
func TestDecodeUpdateQuantizedNaNRangeSurfacesDownstream(t *testing.T) {
	cfg := compress.Config{Mode: compress.Q8}
	d, err := cfg.Compress(testVector(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendUpdateFrame(nil, fl.Update{ClientID: 3}, d, compress.Q8)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), frame[HeaderLen:]...)
	// Overwrite min with NaN.
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		payload[20+i] = byte(nan >> (8 * i))
	}
	u, err := DecodeUpdate(compress.Q8, payload)
	if err != nil {
		t.Fatalf("structural decode should pass: %v", err)
	}
	if _, err := fl.Densify(u, make([]float64, 8)); err == nil {
		t.Fatal("NaN-range update densified without error")
	}
}

// TestBulkWordsMatchPerWord: the bulk word codec writes exactly the bytes
// a per-word little-endian encode writes, and reads every bit pattern back
// unchanged — signs, subnormals and NaN payloads included — from a slice
// and from a stream that hands over half of each request.
func TestBulkWordsMatchPerWord(t *testing.T) {
	special := []uint64{
		0,                                 // +0
		1 << 63,                           // −0
		0x7ff0000000000000,                // +Inf
		0xfff0000000000000,                // −Inf
		1,                                 // the least subnormal
		0x000fffffffffffff,                // the greatest subnormal
		0x800fffffffffffff,                // a negative subnormal
		math.Float64bits(math.MaxFloat64), // MaxFloat64
		0x7ff8000000000000,                // quiet NaN
		0x7ff00000deadbeef,                // signalling NaN with a payload
		0xfff4000000c0ffee,                // negative signalling NaN with a payload
	}
	rng := rand.New(rand.NewSource(43))
	mixed := make([]uint64, 1001)
	for i := range mixed {
		mixed[i] = rng.Uint64()
	}
	for i, b := range special {
		mixed[91*i] = b
	}
	cases := [][]uint64{{}, special, mixed}
	for _, b := range special {
		cases = append(cases, []uint64{b})
	}
	for _, bits := range cases {
		vals := make([]float64, len(bits))
		var want []byte
		for i, b := range bits {
			vals[i] = math.Float64frombits(b)
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(vals[i]))
		}
		if got := appendWords([]byte{0xAA}, vals); got[0] != 0xAA || !bytes.Equal(got[1:], want) {
			t.Fatalf("%d floats: bulk encode % x, per-word % x", len(vals), got, want)
		}
		if got := appendWords(nil, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d keys: bulk encode % x, per-word % x", len(bits), got, want)
		}
		fromSlice := make([]float64, len(bits))
		getWords(fromSlice, want)
		fromStream := make([]float64, len(bits))
		keys := make([]uint64, len(bits))
		if err := readWords(iotest.HalfReader(bytes.NewReader(want)), fromStream); err != nil {
			t.Fatal(err)
		}
		if err := readWords(bytes.NewReader(want), keys); err != nil {
			t.Fatal(err)
		}
		for i, b := range bits {
			if math.Float64bits(fromSlice[i]) != b || math.Float64bits(fromStream[i]) != b || keys[i] != b {
				t.Fatalf("word %d of %d: %#016x decoded as %#016x (slice), %#016x (stream), %#016x (key)",
					i, len(bits), b, math.Float64bits(fromSlice[i]), math.Float64bits(fromStream[i]), keys[i])
			}
		}
	}
}
