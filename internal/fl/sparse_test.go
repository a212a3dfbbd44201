package fl

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

func sparseUpdate(indices []int, values []float64, denseLen int) Update {
	return Update{ClientID: 1, Params: values, Indices: indices, DenseLen: denseLen, IsDelta: true}
}

func TestValidateSparseTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		u    Update
		want error
	}{
		{"index-negative", sparseUpdate([]int{-1, 2}, []float64{1, 2}, 4), ErrSparseIndexRange},
		{"index-past-end", sparseUpdate([]int{0, 4}, []float64{1, 2}, 4), ErrSparseIndexRange},
		{"duplicate", sparseUpdate([]int{1, 1}, []float64{1, 2}, 4), ErrSparseDuplicateIndex},
		{"unsorted", sparseUpdate([]int{2, 0}, []float64{1, 2}, 4), ErrSparseUnsorted},
		{"count-mismatch", sparseUpdate([]int{0, 1}, []float64{1}, 4), ErrSparseShape},
		{"dense-len-mismatch", sparseUpdate([]int{0}, []float64{1}, 5), ErrSparseShape},
		{"too-many-indices", sparseUpdate([]int{0, 1, 2, 3, 3}, []float64{1, 2, 3, 4, 5}, 4), ErrSparseShape},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateSparse(tc.u, 4); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// ValidateUpdate must classify identically (it delegates).
			if err := ValidateUpdate(tc.u, 4); !errors.Is(err, tc.want) {
				t.Fatalf("ValidateUpdate err = %v, want %v", err, tc.want)
			}
		})
	}
	if err := ValidateSparse(sparseUpdate([]int{1, 3}, []float64{1, 2}, 4), 4); err != nil {
		t.Fatalf("valid sparse update rejected: %v", err)
	}
	if err := ValidateSparse(sparseUpdate([]int{0}, []float64{math.NaN()}, 4), 4); err == nil {
		t.Fatal("NaN sparse value accepted")
	}
	// Dense delta: length and finiteness only.
	dd := Update{ClientID: 2, Params: []float64{1, 2, 3}, IsDelta: true, DenseLen: 3}
	if err := ValidateSparse(dd, 3); err != nil {
		t.Fatalf("dense delta rejected: %v", err)
	}
	dd.Params = dd.Params[:2]
	if err := ValidateSparse(dd, 3); !errors.Is(err, ErrSparseShape) {
		t.Fatalf("short dense delta: err = %v", err)
	}
}

func TestDensify(t *testing.T) {
	global := []float64{10, 20, 30, 40}

	t.Run("sparse-delta", func(t *testing.T) {
		u := sparseUpdate([]int{1, 3}, []float64{0.5, -2}, 4)
		got, err := Densify(u, global)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{10, 20.5, 30, 38}
		if !reflect.DeepEqual(got.Params, want) {
			t.Fatalf("Params = %v, want %v", got.Params, want)
		}
		if got.Sparse() || got.DenseLen != 0 {
			t.Fatalf("densified update still compressed: %+v", got)
		}
		if got.ClientID != u.ClientID {
			t.Fatal("densify dropped the client id")
		}
	})
	t.Run("dense-raw-passthrough", func(t *testing.T) {
		u := Update{ClientID: 3, Params: []float64{1, 2, 3, 4}}
		got, err := Densify(u, global)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, u) {
			t.Fatalf("dense raw update changed: %+v", got)
		}
	})
	t.Run("invalid-rejected", func(t *testing.T) {
		if _, err := Densify(sparseUpdate([]int{9}, []float64{1}, 4), global); !errors.Is(err, ErrSparseIndexRange) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no-global-alias", func(t *testing.T) {
		u := Update{ClientID: 4, Params: []float64{0, 0, 0, 0}, IsDelta: true, DenseLen: 4}
		got, err := Densify(u, global)
		if err != nil {
			t.Fatal(err)
		}
		got.Params[0] = -1
		if global[0] != 10 {
			t.Fatal("densified update aliases the global vector")
		}
	})
}

// coreAggregate runs one flat round of a RoundCore under rule over
// updates, centered on global, and returns its aggregate.
func coreAggregate(rule robust.Aggregator, global []float64, updates []Update, minQuorum int) ([]float64, robust.Report, error) {
	r := RoundCore{Global: global}
	r.SetRule(rule)
	r.Begin(0, 0)
	for _, u := range updates {
		if _, err := r.Fold(u); err != nil {
			return nil, robust.Report{}, err
		}
	}
	return r.Aggregate(minQuorum)
}

// TestAggregateRejectsSparse: the misfold fix — an un-densified update
// reaching either aggregation path is an explicit error, never a silent
// wrong answer.
func TestAggregateRejectsSparse(t *testing.T) {
	dense := Update{ClientID: 0, Params: []float64{1, 2}, NumSamples: 1}
	sparse := sparseUpdate([]int{0}, []float64{5}, 2)
	if _, err := Aggregate([]Update{dense, sparse}); err == nil {
		t.Fatal("Aggregate accepted a sparse update")
	}
	if _, _, err := coreAggregate(robust.Median{}, []float64{0, 0},
		[]Update{dense, sparse}, 1); err == nil {
		t.Fatal("the round core's robust rule accepted a sparse update")
	}
	// Delta-but-dense shapes are rejected too.
	delta := Update{ClientID: 2, Params: []float64{1, 2}, IsDelta: true, DenseLen: 2, NumSamples: 1}
	if _, err := Aggregate([]Update{delta}); err == nil {
		t.Fatal("Aggregate accepted a delta update")
	}
}

// TestCompressedThroughRobustFold: densified compressed updates flow
// through Median/TrimmedMean with the documented semantics — the fold
// sees the reconstructed dense vectors, so its output equals the fold
// computed directly over those reconstructions.
func TestCompressedThroughRobustFold(t *testing.T) {
	global := []float64{1, -1, 2, 0, 3, -2, 0.5, 1.5}
	cfg := compress.Config{Mode: compress.TopKQ8, TopKFrac: 0.5}
	raw := [][]float64{
		{1.5, -1, 2.25, 0, 3, -2, 0.5, 1.5},
		{0.5, -0.5, 2, 0.25, 3.5, -2, 0.25, 1.5},
		{1, -1.5, 1.75, 0, 2.5, -1.5, 0.5, 1.75},
	}
	updates := make([]Update, len(raw))
	recon := make([][]float64, len(raw))
	for i, p := range raw {
		delta := make([]float64, len(p))
		for j := range p {
			delta[j] = p[j] - global[j]
		}
		d, err := cfg.Compress(delta)
		if err != nil {
			t.Fatal(err)
		}
		dec := d.Decode()
		recon[i] = make([]float64, len(global))
		for j := range dec {
			recon[i][j] = global[j] + dec[j]
		}
		// Route the compressed shape through the real wire semantics:
		// sparse delta update, then Densify.
		u := Update{ClientID: i, NumSamples: 1, Params: append([]float64(nil), d.Decode()...), IsDelta: true, DenseLen: len(global)}
		u, err = Densify(u, global)
		if err != nil {
			t.Fatal(err)
		}
		updates[i] = u
	}
	for _, agg := range []robust.Aggregator{robust.Median{}, robust.TrimmedMean{Frac: 0.34}} {
		got, _, err := coreAggregate(agg, global, updates, 1)
		if err != nil {
			t.Fatal(err)
		}
		weights := []float64{1, 1, 1}
		want, _, err := agg.Aggregate(global, recon, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over compressed updates = %v, over reconstructions = %v",
				agg.Name(), got, want)
		}
	}
}

// TestPolicyCompressBankRoundTrip: the in-process engine under
// RoundPolicy.Compress aggregates the lossy reconstructions (not the raw
// updates), applies error feedback across rounds, and checkpoints the
// bank through ServerState bit-identically.
func TestPolicyCompressBankRoundTrip(t *testing.T) {
	build := func() (*Server, []*vecClient) {
		clients := []*vecClient{
			newVecClient(0, 3, []float64{1, 0, -1, 0.5}),
			newVecClient(1, 3, []float64{-0.5, 1, 0, 0.25}),
		}
		srv := NewServer(make([]float64, 4), clients[0], clients[1])
		srv.Policy = &RoundPolicy{
			MinQuorum: 2,
			Compress:  compress.NewBank(compress.Config{Mode: compress.TopKQ16, TopKFrac: 0.5}),
		}
		return srv, clients
	}

	// Reference: run 6 rounds straight through.
	ref, _ := build()
	if err := ref.Run(6); err != nil {
		t.Fatal(err)
	}

	// Crash run: 3 rounds, capture, rebuild, restore, 3 more rounds.
	a, _ := build()
	if err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	st, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compress == nil {
		t.Fatal("ServerState.Compress not captured")
	}
	b, _ := build()
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(6); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Global(), b.Global()) {
		t.Fatalf("compressed resume diverged:\nref    %v\nresume %v", ref.Global(), b.Global())
	}

	// And compression must actually be lossy here (the bank is in the
	// loop): a dense run of the same federation differs.
	dense, _ := build()
	dense.Policy.Compress = nil
	if err := dense.Run(6); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref.Global(), dense.Global()) {
		t.Fatal("compressed and dense runs agree exactly — bank is not in the aggregation path")
	}
}

// vecClient is a deterministic StatefulClient whose update is the global
// plus a fixed step scaled by (round+1) — cheap, nonlinear enough to
// expose ordering bugs, and trivially capturable.
type vecClient struct {
	id      int
	samples int
	step    []float64
	round   int
}

func newVecClient(id, samples int, step []float64) *vecClient {
	return &vecClient{id: id, samples: samples, step: step}
}

func (c *vecClient) ID() int         { return c.id }
func (c *vecClient) NumSamples() int { return c.samples }

func (c *vecClient) TrainLocal(round int, global []float64) (Update, error) {
	out := make([]float64, len(global))
	scale := 1 / float64(round+1)
	for i := range out {
		out[i] = global[i] + scale*c.step[i%len(c.step)]
	}
	c.round = round + 1
	return Update{ClientID: c.id, Params: out, NumSamples: c.samples, TrainLoss: scale}, nil
}

func (c *vecClient) CaptureState() ([]byte, error) { return []byte{byte(c.round)}, nil }
func (c *vecClient) RestoreState(b []byte) error   { c.round = int(b[0]); return nil }
