package transport

// The compressed client's residual is advanced in place by
// sendUpdate. These tests hold the two properties that rests on: a
// steady-state round allocates nothing the size of the model, and a
// rollback capture is always a copy of the residual, never an alias.

import (
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
)

// TestSendUpdateBinaryAllocatesNoDenseVector sends topk8 updates over a
// real loopback connection and bounds what one send allocates well below
// a single dense vector of the model's length.
func TestSendUpdateBinaryAllocatesNoDenseVector(t *testing.T) {
	const dim = 1 << 18
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c) //nolint:errcheck — the sender's errors are the test's
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(1))
	global, params := make([]float64, dim), make([]float64, dim)
	for i := range global {
		global[i] = r.NormFloat64()
		params[i] = global[i] + r.NormFloat64()*1e-2
	}
	cfg := compress.Config{Mode: compress.TopKQ8, TopKFrac: 0.01}.WithDefaults()
	st := &sessionState{captures: make(map[int][]byte)}
	u := fl.Update{ClientID: 0, NumSamples: 10, TrainLoss: 1, Params: params}
	send := func() {
		if err := sendUpdate(conn, u, global, cfg, st); err != nil {
			t.Fatal(err)
		}
	}
	send() // first round: allocates the residual and warms the frame pool
	live := &st.residual[0]

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	if perSend := (after.TotalAlloc - before.TotalAlloc) / runs; perSend > dim*8/4 {
		t.Fatalf("a topk8 send allocates %d B; a dense vector is %d B", perSend, dim*8)
	}
	if &st.residual[0] != live {
		t.Fatal("the session residual was reallocated instead of advanced in place")
	}
	conn.Close()
	<-drained
}

// TestResidualCapturesCopyAndRecycle: captures survive in-place advances
// of the live residual, a pruned capture's storage serves the next
// capture, and a rollback copies into the live residual.
func TestResidualCapturesCopyAndRecycle(t *testing.T) {
	client := &stepClient{id: 0, step: 0.1}
	st := &sessionState{token: "durable", captures: make(map[int][]byte)}
	st.residual = []float64{1, 2, 3}
	capture(client, st, 0, st.residual)
	st.residual[0] = 10 // round 1 advances the residual in place
	capture(client, st, 1, st.residual)
	st.residual[0] = 20
	if got := st.resCaptures[0][0]; got != 1 {
		t.Fatalf("capture 0 aliases the live residual: %v", got)
	}
	if got := st.resCaptures[1][0]; got != 10 {
		t.Fatalf("capture 1 aliases the live residual: %v", got)
	}

	pruned := &st.resCaptures[0][0]
	pruneCaptures(st, 1)
	if len(st.resCaptures) != 1 || len(st.resFree) != 1 {
		t.Fatalf("prune kept %d captures, %d spare", len(st.resCaptures), len(st.resFree))
	}
	capture(client, st, 2, st.residual)
	if &st.resCaptures[2][0] != pruned || len(st.resFree) != 0 {
		t.Fatal("the pruned capture's storage was not recycled")
	}
	if got := st.resCaptures[2]; got[0] != 20 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("recycled capture holds %v", got)
	}

	// The coordinator resumes at round 2: rewind to the round-1 capture.
	st.nextRound = 3
	live := &st.residual[0]
	if err := rollback(client, st, 2, true); err != nil {
		t.Fatal(err)
	}
	if &st.residual[0] != live || st.residual[0] != 10 {
		t.Fatalf("rollback should copy capture 1 into the live residual, got %v", st.residual)
	}
	st.residual[0] = 30
	if st.resCaptures[1][0] != 10 {
		t.Fatal("rollback left the live residual aliasing its capture")
	}
	// Replaying round 2 overwrites its own capture slot in place.
	slot := &st.resCaptures[2][0]
	capture(client, st, 2, st.residual)
	if &st.resCaptures[2][0] != slot || st.resCaptures[2][0] != 30 {
		t.Fatal("a replayed round should overwrite its own capture")
	}
}
