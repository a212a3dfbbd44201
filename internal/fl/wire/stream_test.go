package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// The streaming decoders must be the byte-slice decoders fed from a
// reader: same accept/reject class, same fields bit for bit, whatever the
// reader's chunking — plus the properties only a stream can have (the
// destination is the caller's, a wrong length is refused before the body
// is read, a body cut short is an I/O error).

// errClass buckets a decode outcome the way the transport classifies it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accept"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrPayload):
		return "payload"
	case errors.Is(err, ErrBudget):
		return "budget"
	}
	return "io: " + err.Error()
}

// dribble delivers r in reads of at most step bytes (one byte at a time
// for step ≤ 1), the way a congested connection would.
func dribble(r io.Reader, step int) io.Reader {
	if step <= 1 {
		return iotest.OneByteReader(r)
	}
	return &stepReader{r: r, step: step}
}

type stepReader struct {
	r    io.Reader
	step int
}

func (s *stepReader) Read(p []byte) (int, error) {
	if len(p) > s.step {
		p = p[:s.step]
	}
	return s.r.Read(p)
}

// bigLen is a vector length whose body outgrows a buffered reader's
// buffer, so reads pass through to the source, and is not a power of two.
const bigLen = 64<<10/8 + 3

func sameUpdate(t *testing.T, got, want fl.Update) {
	t.Helper()
	if got.ClientID != want.ClientID || got.NumSamples != want.NumSamples ||
		math.Float64bits(got.TrainLoss) != math.Float64bits(want.TrainLoss) ||
		got.DenseLen != want.DenseLen || got.IsDelta != want.IsDelta ||
		!reflect.DeepEqual(got.Indices, want.Indices) || !sameF64s(got.Params, want.Params) {
		t.Fatalf("stream decode %+v differs from byte decode %+v", got, want)
	}
}

func sameF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stream is one way of delivering a payload to a streaming decoder.
type stream struct {
	name string
	r    io.Reader
}

// streams delivers payload whole, one byte per read, half of each read's
// request, and step bytes per read: the decoders' io.ReadFull into the
// destination is the only loop over a body, and each of these drives it
// differently.
func streams(payload []byte, step int) []stream {
	return []stream{
		{"whole", bytes.NewReader(payload)},
		{"one byte", iotest.OneByteReader(bytes.NewReader(payload))},
		{"half", iotest.HalfReader(bytes.NewReader(payload))},
		{"step", dribble(bytes.NewReader(payload), step)},
	}
}

// FuzzDecodeUpdateStream: for arbitrary payload bytes under any mode,
// Reader.Update fed through each of streams and DecodeUpdate on the same
// bytes agree on the accept/reject class and, on accept, on every field
// bit for bit; an accepted payload whose last 4 bytes never arrive (its
// last word cut in half) is io.ErrUnexpectedEOF; a dense update of the
// wrong length is refused with only its head consumed.
func FuzzDecodeUpdateStream(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgUpdate {
			f.Add(b[3], b[HeaderLen:], uint16(1))
			f.Add(b[3], b[HeaderLen:], uint16(7))
		}
	})
	big, _ := AppendUpdateFrame(nil, fl.Update{ClientID: 1, NumSamples: 2, TrainLoss: 3,
		Params: testVector(bigLen, 9)}, nil, compress.None)
	f.Add(byte(compress.None), big[HeaderLen:], uint16(4096))
	f.Add(byte(compress.None), []byte{}, uint16(1))
	// Three words read 5 bytes at a time: the cut check splits the last
	// word across two reads, the second of them short.
	small, _ := AppendUpdateFrame(nil, fl.Update{ClientID: 4, NumSamples: 5,
		Params: []float64{1, math.Inf(-1), math.Copysign(0, -1)}}, nil, compress.None)
	f.Add(byte(compress.None), small[HeaderLen:], uint16(5))
	f.Fuzz(func(t *testing.T, modeByte byte, payload []byte, step uint16) {
		mode := compress.Mode(modeByte)
		want, wantErr := DecodeUpdate(mode, payload)
		n := 3
		if wantErr == nil && mode == compress.None {
			n = len(want.Params)
		}
		var body []byte // one exchange's body bytes, reused stream after stream
		for _, s := range streams(payload, int(step)) {
			dst := make([]float64, n)
			got, gotErr := NewReader(s.r).Update(mode, len(payload), dst, &body)
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("mode %d, %s: stream says %q (%v), bytes say %q (%v)",
					modeByte, s.name, errClass(gotErr), gotErr, errClass(wantErr), wantErr)
			}
			if wantErr != nil {
				continue
			}
			sameUpdate(t, got, want)
			if mode == compress.None && n > 0 && &got.Params[0] != &dst[0] {
				t.Fatalf("%s: a dense update was not decoded into the caller's storage", s.name)
			}
		}
		if wantErr != nil {
			return
		}
		for _, s := range streams(payload[:len(payload)-4], int(step)) {
			if _, err := NewReader(s.r).Update(mode, len(payload), make([]float64, n), &body); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("mode %d, %s: a payload cut mid-word reads as %v, want io.ErrUnexpectedEOF", modeByte, s.name, err)
			}
		}
		if mode != compress.None {
			return
		}
		r := bytes.NewReader(payload)
		if _, err := NewReader(r).Update(mode, len(payload), make([]float64, n+1), &body); errClass(err) != "payload" {
			t.Fatalf("a %d-param update decoded into %d params: %v", n, n+1, err)
		}
		if read := len(payload) - r.Len(); read > updateHeadLen {
			t.Fatalf("a wrong-length update was refused after %d bytes; the head is %d", read, updateHeadLen)
		}
	})
}

func samePartial(t *testing.T, got, want fl.Partial) {
	t.Helper()
	if got.Round != want.Round || got.LeafID != want.LeafID || got.Count != want.Count ||
		got.Degraded != want.Degraded || !sameF64s(got.Sum, want.Sum) ||
		math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
		math.Float64bits(got.ExpectWeight) != math.Float64bits(want.ExpectWeight) ||
		(got.Sketch == nil) != (want.Sketch == nil) {
		t.Fatalf("stream decode %+v differs from byte decode %+v", got, want)
	}
	if got.Sketch == nil {
		return
	}
	gs, ws := got.Sketch, want.Sketch
	if gs.Cap != ws.Cap || gs.Rows != ws.Rows || !reflect.DeepEqual(gs.Keys, ws.Keys) || len(gs.Vals) != len(ws.Vals) {
		t.Fatalf("stream-decoded sketch %+v differs from byte-decoded %+v", gs, ws)
	}
	for i := range ws.Vals {
		if !sameF64s(gs.Vals[i], ws.Vals[i]) {
			t.Fatalf("sketch row %d differs between stream and byte decode", i)
		}
	}
}

// FuzzDecodePartialStream: for arbitrary partial payload bytes,
// Reader.Partial fed through each of streams — into one sketch, reset by
// every read as a connection's is — and DecodePartial2 on the same bytes
// agree on the accept/reject class and, on accept, on every field
// bit for bit; an accepted payload whose last 4 bytes never arrive is
// io.ErrUnexpectedEOF. Every rejection comes before a single sketch row is
// taken; in particular a partial one parameter off the model, or claiming
// one retained row more than its size holds, is refused that early — the
// former with only its head consumed.
func FuzzDecodePartialStream(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgPartial2 {
			f.Add(b[HeaderLen:], uint16(1))
			f.Add(b[HeaderLen:], uint16(7))
		}
	})
	sk := robust.NewSketch(4)
	sk.Add(robust.KeyClient(1), testVector(bigLen, 5))
	sk.Add(robust.KeyClient(2), testVector(bigLen, 6))
	big := AppendPartial2Frame(nil, fl.Partial{Round: 2, LeafID: 1, Count: 2, Weight: 3, ExpectWeight: 4,
		Sum: testVector(bigLen, 9), Sketch: sk})
	f.Add(big[HeaderLen:], uint16(4096))
	f.Add([]byte{}, uint16(1))
	// A one-row sketch of three words read 5 bytes at a time: the cut
	// check splits the row's last word across two reads.
	small := robust.NewSketch(2)
	small.Add(robust.KeyClient(3), []float64{-1, math.NaN(), 2})
	sketched := AppendPartial2Frame(nil, fl.Partial{Round: 1, Count: 1, Weight: 1,
		Sum: []float64{1, 2, 3}, Sketch: small})
	f.Add(sketched[HeaderLen:], uint16(5))
	f.Fuzz(func(t *testing.T, payload []byte, step uint16) {
		want, wantErr := DecodePartial2(payload)
		// The model length: what the head declares, where that is plausible.
		n := 0
		if len(payload) >= partial2HeadLen {
			n = min(int(getU32(payload[32:])), len(payload)/8)
		}
		taken := 0
		row := func() []float64 { taken++; return make([]float64, n) }
		var sk robust.Sketch
		for _, s := range streams(payload, int(step)) {
			taken = 0
			sum := make([]float64, n)
			got, gotErr := NewReader(s.r).Partial(len(payload), sum, &sk, row)
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("%s: stream says %q (%v), bytes say %q (%v)",
					s.name, errClass(gotErr), gotErr, errClass(wantErr), wantErr)
			}
			if wantErr != nil {
				if taken != 0 {
					t.Fatalf("%s: a refused partial took %d rows", s.name, taken)
				}
				continue
			}
			samePartial(t, got, want)
			if n > 0 && &got.Sum[0] != &sum[0] {
				t.Fatalf("%s: the sums were not decoded into the caller's storage", s.name)
			}
			if want.Sketch != nil && taken != len(want.Sketch.Keys) {
				t.Fatalf("%s: %d retained rows took %d", s.name, len(want.Sketch.Keys), taken)
			}
		}
		if wantErr != nil {
			return
		}
		for _, s := range streams(payload[:len(payload)-4], int(step)) {
			if _, err := NewReader(s.r).Partial(len(payload), make([]float64, n), &sk, row); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: a partial cut mid-word reads as %v, want io.ErrUnexpectedEOF", s.name, err)
			}
		}

		taken = 0
		r := bytes.NewReader(payload)
		if _, err := NewReader(r).Partial(len(payload), make([]float64, n+1), &sk, row); errClass(err) != "payload" || taken != 0 {
			t.Fatalf("a %d-param partial read against %d params: %v, %d rows taken", n, n+1, err, taken)
		}
		if read := len(payload) - r.Len(); read > partial2HeadLen {
			t.Fatalf("a wrong-length partial was refused after %d bytes; the head is %d", read, partial2HeadLen)
		}
		if want.Sketch == nil {
			return
		}
		lie := append([]byte(nil), payload...)
		kAt := partial2HeadLen + 8*n + 8
		binary.LittleEndian.PutUint32(lie[kAt:], uint32(len(want.Sketch.Keys)+1))
		if _, err := NewReader(bytes.NewReader(lie)).Partial(len(lie), make([]float64, n), &sk, row); errClass(err) != "payload" || taken != 0 {
			t.Fatalf("a sketch claiming one row too many: %v, %d rows taken", err, taken)
		}
	})
}

// TestStreamDecodesGoldenFrames: every committed fixture that has a
// streaming decoder parses to what the byte-slice decoder yields, one
// byte at a time.
func TestStreamDecodesGoldenFrames(t *testing.T) {
	n := 0
	for name, frame := range goldenFrames(t) {
		r := NewReader(dribble(bytes.NewReader(frame), 1))
		typ, mode, size, err := r.Header(len(frame))
		if err != nil {
			t.Fatalf("%s: Header: %v", name, err)
		}
		payload := frame[HeaderLen:]
		switch typ {
		case MsgRound2:
			want, _ := DecodeRound2(payload)
			got, err := r.Round(size, nil)
			if err != nil || !sameF64s(got.Params, want.Params) {
				t.Fatalf("%s: Round = %+v, %v; want %+v", name, got, err, want)
			}
			got.Params, want.Params = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Round head %+v, want %+v", name, got, want)
			}
		case MsgUpdate:
			want, _ := DecodeUpdate(mode, payload)
			var body []byte
			got, err := r.Update(mode, size, make([]float64, len(goldenVector())), &body)
			if err != nil {
				t.Fatalf("%s: Update: %v", name, err)
			}
			sameUpdate(t, got, want)
		case MsgPartial2:
			want, _ := DecodePartial2(payload)
			dim := len(goldenVector())
			got, err := r.Partial(size, make([]float64, dim), new(robust.Sketch), func() []float64 { return make([]float64, dim) })
			if err != nil {
				t.Fatalf("%s: Partial: %v", name, err)
			}
			samePartial(t, got, want)
		default:
			continue
		}
		n++
	}
	if n < 8 {
		t.Fatalf("only %d fixtures went through a streaming decoder", n)
	}
}

// TestReadRoundReusesCallerStorage: a round decodes over the previous
// round's vector when that can hold it, read in 1000-byte pieces, with the
// tree directive intact, and into a fresh vector when it cannot.
func TestReadRoundReusesCallerStorage(t *testing.T) {
	params := testVector(3*bigLen, 4)
	owned := make([]float64, len(params)+10)
	frame := AppendRound2Frame(nil, Round2{Round: 7, Durable: 5, SampleFrac: 0.5,
		SampleSeed: -3, SketchCap: 9, Params: params})
	r := NewReader(dribble(bytes.NewReader(frame), 1000))
	typ, _, size, err := r.Header(0)
	if err != nil || typ != MsgRound2 {
		t.Fatalf("Header = type %d, %v", typ, err)
	}
	rd, err := r.Round(size, owned[:3])
	if err != nil {
		t.Fatal(err)
	}
	if &rd.Params[0] != &owned[0] || !sameF64s(rd.Params, params) {
		t.Fatal("the round was not decoded into the caller's storage")
	}
	if rd.Round != 7 || rd.Durable != 5 || rd.SampleFrac != 0.5 || rd.SampleSeed != -3 || rd.SketchCap != 9 {
		t.Fatalf("round head decoded as %+v", rd)
	}
	frame = AppendRoundFrame(nil, 0, -1, params)
	rd, err = NewReader(bytes.NewReader(frame[HeaderLen:])).Round(len(frame)-HeaderLen, make([]float64, 4))
	if err != nil || !sameF64s(rd.Params, params) {
		t.Fatalf("a round larger than the caller's storage: %v", err)
	}
}

// TestStreamRejectsBeforeAllocating: an over-budget length prefix and a
// dense update claiming another model's length are refused without
// allocating anything proportional to what they declare, and a body that
// ends early is an I/O error, not a payload verdict.
func TestStreamRejectsBeforeAllocating(t *testing.T) {
	const claimed = 100 << 20 // params the hostile head declares
	size := UpdatePayloadLen(compress.None, claimed, 0)
	hdr := []byte{Magic, Version, MsgUpdate, byte(compress.None), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(size))
	head := make([]byte, updateHeadLen)
	binary.LittleEndian.PutUint32(head[16:], claimed)
	dst := make([]float64, 8)
	var body []byte

	// The least of three tries: under -race the runtime now and then
	// allocates a few KiB of its own inside the window.
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, budgetErr := NewReader(bytes.NewReader(hdr)).Header(1 << 20)
		_, lenErr := NewReader(bytes.NewReader(head)).Update(compress.None, size, dst, &body)
		runtime.ReadMemStats(&after)
		if errClass(budgetErr) != "budget" || errClass(lenErr) != "payload" {
			t.Fatalf("hostile lengths: header %v, update %v", budgetErr, lenErr)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Fatalf("refusing an %d-param claim allocated %d B", claimed, least)
	}

	frame, _ := AppendUpdateFrame(nil, fl.Update{Params: testVector(100, 1)}, nil, compress.None)
	cut := frame[HeaderLen : len(frame)-9]
	_, err := NewReader(bytes.NewReader(cut)).Update(compress.None, len(frame)-HeaderLen, make([]float64, 100), &body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body cut mid-stream reads as %v, want io.ErrUnexpectedEOF", err)
	}
	_, err = NewReader(bytes.NewReader(nil)).Round(Round2PayloadLen(4), nil)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("a round with no bytes behind its header reads as %v, want io.EOF", err)
	}
}
