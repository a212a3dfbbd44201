package compress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestParseModeRoundTrip(t *testing.T) {
	for m := Mode(0); m.Valid(); m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("zstd"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	for s, want := range map[string]Mode{"": None, "int8": Q8, "int16": Q16, "topk-q8": TopKQ8} {
		if got, _ := ParseMode(s); got != want {
			t.Fatalf("ParseMode(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestTopKSelectDeterministic: same vector, same support, always — and
// magnitude ties break toward the lower index.
func TestTopKSelectDeterministic(t *testing.T) {
	v := []float64{1, -3, 3, 0.5, -3, 2}
	got := TopKSelect(v, 3)
	want := []int{1, 2, 4} // |−3| = |3| = |−3| tie broken by index
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopKSelect = %v, want %v", got, want)
	}
	for i := 0; i < 10; i++ {
		if again := TopKSelect(v, 3); !reflect.DeepEqual(again, got) {
			t.Fatalf("nondeterministic selection: %v vs %v", again, got)
		}
	}
	if got := TopKSelect(v, 99); len(got) != len(v) {
		t.Fatalf("k > n should select everything, got %v", got)
	}
}

// TestQuantizeErrorBound: the property the wire format's lossiness rests
// on — for any vector and either width, |decode(encode(x)) − x| is at
// most half a quantization step, (max−min)/(2^bits − 1)/2.
func TestQuantizeErrorBound(t *testing.T) {
	for _, cfg := range []Config{{Mode: Q8}, {Mode: Q16}} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			v := randVec(r, 1+r.Intn(200))
			d, err := cfg.Compress(v)
			if err != nil {
				return false
			}
			back := d.Decode()
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			bound := (hi-lo)/float64(uint32(1)<<cfg.Mode.Bits()-1)/2 + 1e-12
			for i := range v {
				if math.Abs(back[i]-v[i]) > bound {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", cfg.Mode, err)
		}
	}
}

// TestErrorFeedbackResidualBounded: the error-feedback invariant — the
// residual never grows without bound under repeated compression of fresh
// deltas. For top-k the compression operator is a contraction on what it
// keeps, so ‖residual‖ stays within a constant factor of the per-round
// delta norm instead of accumulating.
func TestErrorFeedbackResidualBounded(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, cfg := range []Config{
		{Mode: TopK, TopKFrac: 0.1},
		{Mode: TopKQ8, TopKFrac: 0.1},
		{Mode: Q8},
	} {
		var residual []float64
		const n, rounds = 200, 120
		deltaNorm := 0.0
		var resNorm float64
		for round := 0; round < rounds; round++ {
			delta := randVec(r, n)
			var ss float64
			for _, x := range delta {
				ss += x * x
			}
			deltaNorm = math.Max(deltaNorm, math.Sqrt(ss))
			var err error
			_, residual, err = cfg.CompressEF(delta, residual)
			if err != nil {
				t.Fatal(err)
			}
			ss = 0
			for _, x := range residual {
				ss += x * x
			}
			resNorm = math.Sqrt(ss)
		}
		// A divergent accumulator would be ~rounds × deltaNorm by now.
		if resNorm > 10*deltaNorm {
			t.Errorf("%s: residual norm %v after %d rounds (delta norm ≤ %v) — error feedback diverged",
				cfg.Mode, resNorm, rounds, deltaNorm)
		}
	}
}

// TestErrorFeedbackConvergesToDense: compressing a CONSTANT target delta
// with error feedback, the cumulative transmitted signal converges to the
// cumulative dense signal — the residual carries forward exactly what was
// dropped, so nothing is ever lost, only delayed. This is the property
// that lets a top-k federation reach the dense aggregate over rounds.
func TestErrorFeedbackConvergesToDense(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const n, rounds = 64, 400
	target := randVec(r, n)
	for _, cfg := range []Config{
		{Mode: TopK, TopKFrac: 0.05},
		{Mode: TopKQ16, TopKFrac: 0.05},
	} {
		var residual []float64
		sent := make([]float64, n)
		// relAt measures how far the cumulative compressed signal is
		// from the cumulative dense signal R×target, relatively.
		relAt := func(round int) float64 {
			var num, den float64
			for i := range target {
				want := float64(round) * target[i]
				num += (want - sent[i]) * (want - sent[i])
				den += want * want
			}
			return math.Sqrt(num / den)
		}
		var relEarly float64
		for round := 0; round < rounds; round++ {
			d, newRes, err := cfg.CompressEF(target, residual)
			if err != nil {
				t.Fatal(err)
			}
			residual = newRes
			for i, v := range d.Decode() {
				sent[i] += v
			}
			if round+1 == 50 {
				relEarly = relAt(50)
			}
		}
		// The residual stabilizes at a constant while the dense signal
		// grows linearly, so the relative gap must shrink ~1/R and end
		// small: the compressed federation converges to the dense one.
		relLate := relAt(rounds)
		if relLate > 0.05 {
			t.Errorf("%s: cumulative compressed signal is %.2f%% away from dense after %d rounds",
				cfg.Mode, 100*relLate, rounds)
		}
		if relLate > relEarly/2 {
			t.Errorf("%s: gap did not shrink with rounds: %.3f at 50, %.3f at %d",
				cfg.Mode, relEarly, relLate, rounds)
		}
		// And the gap must be exactly the residual (conservation law).
		for i := range target {
			gap := float64(rounds)*target[i] - sent[i]
			if math.Abs(gap-residual[i]) > 1e-9*(1+math.Abs(gap)) {
				t.Fatalf("%s: conservation broken at %d: gap %v, residual %v",
					cfg.Mode, i, gap, residual[i])
			}
		}
	}
}

func TestCompressEFRejectsLengthMismatch(t *testing.T) {
	cfg := Config{Mode: TopK}
	if _, _, err := cfg.CompressEF(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWireBytesMatchesShape(t *testing.T) {
	v := randVec(rand.New(rand.NewSource(13)), 100)
	cases := map[Mode]int{
		TopK:    4 + 10*4 + 10*8,
		TopKQ8:  4 + 16 + 10*4 + 10,
		TopKQ16: 4 + 16 + 10*4 + 20,
		Q8:      16 + 100,
		Q16:     16 + 200,
		None:    800,
	}
	for mode, want := range cases {
		d, err := Config{Mode: mode, TopKFrac: 0.1}.Compress(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.WireBytes(); got != want {
			t.Errorf("%s: WireBytes = %d, want %d", mode, got, want)
		}
	}
}

func TestBankRoundTripAndSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	cfg := Config{Mode: TopKQ8, TopKFrac: 0.1}
	global := randVec(r, 50)

	// Two banks fed identical sequences stay bit-identical; a third
	// restored from a mid-stream snapshot rejoins the stream exactly.
	a, b := NewBank(cfg), NewBank(cfg)
	var snap []byte
	params := make([][]float64, 6)
	for i := range params {
		params[i] = randVec(r, 50)
	}
	outA := make([][]float64, len(params))
	for i, p := range params {
		var err error
		outA[i], _, err = a.RoundTrip(1, global, p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			snap, err = a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range params {
		out, _, err := b.RoundTrip(1, global, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, outA[i]) {
			t.Fatalf("banks diverged at step %d", i)
		}
	}
	c := NewBank(cfg)
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(params); i++ {
		out, _, err := c.RoundTrip(1, global, params[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, outA[i]) {
			t.Fatalf("restored bank diverged at step %d", i)
		}
	}
}

func TestBankRestoreRejectsConfigMismatch(t *testing.T) {
	snap, err := NewBank(Config{Mode: TopK, TopKFrac: 0.5}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewBank(Config{Mode: Q8}).Restore(snap); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	if err := NewBank(Config{Mode: TopK, TopKFrac: 0.25}).Restore(snap); err == nil {
		t.Fatal("fraction mismatch accepted")
	}
	if err := NewBank(Config{Mode: TopK, TopKFrac: 0.5}).Restore([]byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestBankModeNoneIsLossless(t *testing.T) {
	b := NewBank(Config{})
	global := []float64{1, 2, 3}
	params := []float64{4, 5, 6}
	out, bytes, err := b.RoundTrip(0, global, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, params) || bytes != 24 {
		t.Fatalf("RoundTrip = %v (%d bytes)", out, bytes)
	}
	if _, _, err := b.RoundTrip(0, global, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
