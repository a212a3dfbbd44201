package transport

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// encodeUpdate produces the frame a well-behaved client would put on the
// wire for the given dense update — the fuzz corpus starts from these and
// the fuzzer mutates from there.
func encodeUpdate(t testing.TB, u fl.Update) []byte {
	t.Helper()
	frame, err := wire.AppendUpdateFrame(nil, u, nil, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeFrom runs the coordinator's inbound update path over data: the
// byte-budgeted reader, the frame header, the body decoded into a window
// slot, and validation against a 4-parameter model.
func decodeFrom(data []byte, budget int64) (fl.Update, error) {
	lim := &budgetReader{r: bytes.NewReader(data)}
	var slots slotPool
	u, _, err := decodeUpdate(bufio.NewReader(lim), lim, budget, compress.None, 7,
		make([]float64, 4), 0, &slots)
	return u, err
}

// FuzzDecodeUpdate drives the coordinator's byte-budgeted update decode
// with arbitrary wire bytes. The invariant under test: hostile input may
// only ever produce an error — never a panic, never an update that fails
// ValidateUpdate. This is the exact code path a malicious or corrupted
// client reaches on a live federation socket.
func FuzzDecodeUpdate(f *testing.F) {
	const wantLen = 4
	valid := fl.Update{Params: []float64{0.1, -0.2, 0.3, 0.4}, NumSamples: 10, TrainLoss: 1.5}
	f.Add(encodeUpdate(f, valid), int64(1<<20))

	// Wrong parameter count: decodes fine, must be rejected by the length
	// check before the body is read.
	short := fl.Update{Params: []float64{1, 2}, NumSamples: 3}
	f.Add(encodeUpdate(f, short), int64(1<<20))

	// NaN and Inf payloads: the poison FedAvg must never aggregate.
	poison := fl.Update{Params: []float64{math.NaN(), 1, 2, math.Inf(1)}, NumSamples: 5}
	f.Add(encodeUpdate(f, poison), int64(1<<20))

	// Truncated stream and raw garbage.
	full := encodeUpdate(f, valid)
	f.Add(full[:len(full)/2], int64(1<<20))
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef}, int64(1<<20))
	f.Add([]byte{}, int64(1<<20))

	// Tiny budget: even a valid frame must bounce off the budget.
	f.Add(full, int64(3))

	f.Fuzz(func(t *testing.T, data []byte, budget int64) {
		// Budgets the coordinator would realistically derive: clamp the
		// fuzzed value into (0, 1 MiB] so the reader logic, not int64
		// overflow, is what gets exercised.
		if budget <= 0 {
			budget = 1
		}
		if budget > 1<<20 {
			budget = 1 << 20
		}
		u, err := decodeFrom(data, budget)
		if err != nil {
			return // any error is acceptable; panics are not
		}
		// A decode that succeeds must have passed validation and carry
		// the coordinator-assigned client ID.
		if u.ClientID != 7 {
			t.Fatalf("decoded update has ClientID %d, want 7", u.ClientID)
		}
		if err := fl.ValidateUpdate(u, wantLen); err != nil {
			t.Fatalf("decodeUpdate returned an update that fails validation: %v", err)
		}
	})
}

// TestDecodeUpdateSeedCorpus pins the seed-corpus expectations even when
// the fuzzer is not running (plain `go test` executes f.Fuzz over the
// seeds only, but the explicit classification below is stronger).
func TestDecodeUpdateSeedCorpus(t *testing.T) {
	const wantLen = 4
	valid := encodeUpdate(t, fl.Update{ClientID: 3, Params: []float64{0.1, -0.2, 0.3, 0.4}, NumSamples: 10})
	u, err := decodeFrom(valid, 1<<20)
	if err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	if u.ClientID != 7 || len(u.Params) != wantLen {
		t.Fatalf("decoded update corrupted: %+v", u)
	}

	// Wrong length and NaN payloads must classify as invalid so the
	// coordinator counts them as validation rejections, not wire noise.
	for name, data := range map[string][]byte{
		"short": encodeUpdate(t, fl.Update{Params: []float64{1, 2}, NumSamples: 3}),
		"nan":   encodeUpdate(t, fl.Update{Params: []float64{math.NaN(), 1, 2, 3}, NumSamples: 5}),
	} {
		if _, err := decodeFrom(data, 1<<20); err == nil {
			t.Fatalf("%s update accepted", name)
		} else if failureReason(err) != fl.FailInvalid {
			t.Fatalf("%s update failed as %v (%v), want invalid", name, failureReason(err), err)
		}
	}

	// An exhausted budget is refused at the header.
	if _, err := decodeFrom(valid, 3); err == nil {
		t.Fatal("over-budget frame accepted")
	}

	// Truncation and garbage are wire errors, not validation errors.
	if _, err := decodeFrom(valid[:len(valid)/2], 1<<20); err == nil || invalid(err) {
		t.Fatalf("truncated frame: %v, want an I/O error", err)
	}
	if _, err := decodeFrom([]byte{0xff, 0x00, 0xde, 0xad}, 1<<20); err == nil {
		t.Fatal("garbage accepted")
	}
}
