package transport

import (
	"bufio"
	"encoding/gob"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// clientHandshake is a client's side of the handshake: h, offering the
// binary codec, out; the welcome read back through br.
func clientHandshake(conn net.Conn, br *bufio.Reader, h hello) (welcome, error) {
	h.Codec = wire.CodecBinary
	var w welcome
	if err := gob.NewEncoder(conn).Encode(h); err != nil {
		return w, err
	}
	return w, gob.NewDecoder(br).Decode(&w)
}

// handPeer is a hand-rolled client: it performs the real handshake and
// returns the connection's buffered reader positioned at the first round
// frame, so a test can then misbehave at the frame level.
func handPeer(t *testing.T, addr string, h hello) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := clientHandshake(conn, br, h); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn, br
}

// TestCoordinatorClientDisconnect: a client that vanishes mid-round must
// surface as an error from the coordinator, not a hang.
func TestCoordinatorClientDisconnect(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 3, Initial: []float64{1, 2}}
	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	// Read the welcome and first round frame, then drop the connection.
	conn, br := handPeer(t, addr, hello{ID: 0, NumSamples: 5})
	typ, _, n, err := wire.NewReader(br).Header(0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgRound2 {
		t.Fatalf("first frame has type %d, want a round", typ)
	}
	if _, err := io.ReadFull(br, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung after client disconnect")
	}
	if srvErr == nil {
		t.Fatal("coordinator should report an error after client disconnect")
	}
}

// TestCoordinatorRejectsGarbageHello: a connection speaking a different
// protocol must not wedge the handshake.
func TestCoordinatorRejectsGarbageHello(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 1, Initial: []float64{1}}
	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on garbage hello")
	}
	if srvErr == nil {
		t.Fatal("coordinator should reject a malformed hello")
	}
}

// failingClient errors on its first local-training call.
type failingClient struct{ id int }

func (c *failingClient) ID() int         { return c.id }
func (c *failingClient) NumSamples() int { return 1 }
func (c *failingClient) TrainLocal(int, []float64) (fl.Update, error) {
	return fl.Update{}, errTrain
}

var errTrain = &trainError{}

type trainError struct{}

func (*trainError) Error() string { return "train failed" }

// TestRunClientPropagatesTrainError: a client whose local training fails
// must return the error to its operator (and the coordinator sees the
// closed stream).
func TestRunClientPropagatesTrainError(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 2, Initial: []float64{0}}
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a }) //nolint:errcheck
	}()
	addr := <-addrCh

	err := RunClientRetry(addr, &failingClient{id: 0}, RetryConfig{})
	if err == nil {
		t.Fatal("RunClientRetry should propagate the training error")
	}
	wg.Wait()
}
