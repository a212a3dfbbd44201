package transport

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// startLeaf launches a leaf with its local shard of clients and returns
// a wait func for the leaf's outcome (its clients' errors are collected
// into clientErrs, index-aligned with shard).
func startLeaf(t *testing.T, leaf *Leaf, shard []fl.Client, clientErrs []error) func() error {
	t.Helper()
	addrCh := make(chan string, 1)
	var (
		leafErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leafErr = leaf.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh
	var cwg sync.WaitGroup
	for i, c := range shard {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr, c, RetryConfig{})
		}(i, c)
	}
	return func() error {
		wg.Wait()
		cwg.Wait()
		return leafErr
	}
}

// vecShard builds the leaf-l shard of the synthetic deterministic roster
// (two clients per leaf, globally unique IDs).
func vecShard(l int) []fl.Client {
	a, b := 2*l, 2*l+1
	return []fl.Client{
		&vecClient{id: a, samples: 5 + 3*a},
		&vecClient{id: b, samples: 5 + 3*b},
	}
}

// TestTreeMatchesFlatFederation: a 4-leaf × 2-client tree must reach the
// same final global as a flat federation over the identical 8 clients.
// The tree re-associates the weighted sum (per-leaf partials instead of
// one flat fold), so the comparison is to reassociation tolerance, not
// bit-exact.
func TestTreeMatchesFlatFederation(t *testing.T) {
	const leaves, perLeaf, rounds = 4, 2, 3
	initial := []float64{0.5, -1.25, 3, 0.0625}

	flat := &Coordinator{
		NumClients: leaves * perLeaf, Rounds: rounds,
		Initial: append([]float64(nil), initial...),
	}
	want, _ := runVecFederation(t, flat, leaves*perLeaf)

	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
	}
	rootAddr, rootWait := startCoordinator(t, root)

	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := 0; l < leaves; l++ {
		clientErrs[l] = make([]error, perLeaf)
		leaf := &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{
				NumClients: perLeaf,
				Initial:    append([]float64(nil), initial...),
			},
		}
		waits[l] = startLeaf(t, leaf, vecShard(l), clientErrs[l])
	}

	got, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	for l, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		for i, err := range clientErrs[l] {
			if err != nil {
				t.Fatalf("leaf %d client %d: %v", l, i, err)
			}
		}
	}
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("coord %d: tree %v vs flat %v (diff %v)", i, got[i], want[i], diff)
		}
	}
}

// TestTreeSurvivesLeafCrashAndRestart: killing one of four leaves
// mid-federation drops it at the root (quorum 3 holds), and a
// replacement leaf with the same ID rejoins through the root's accept
// loop and serves the remaining rounds.
func TestTreeSurvivesLeafCrashAndRestart(t *testing.T) {
	const leaves, perLeaf, rounds = 4, 2, 8
	initial := []float64{1, -2, 3}

	stopLeaf1 := make(chan struct{})
	var restartOnce sync.Once
	restartErrs := make([]error, perLeaf)
	restartWait := make(chan func() error, 1)

	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
		MinQuorum:      leaves - 1, RoundTimeout: 2 * time.Second,
		AcceptRejoins: true,
	}
	var rootAddr string
	root.AfterRound = func(round int) error {
		switch round {
		case 1:
			close(stopLeaf1)
		case 3:
			restartOnce.Do(func() {
				leaf := &Leaf{
					ID: 1, Root: rootAddr,
					Local: Coordinator{
						NumClients: perLeaf,
						Initial:    append([]float64(nil), initial...),
					},
				}
				restartWait <- startLeaf(t, leaf, vecShard(1), restartErrs)
				// Let the replacement's hello land so the next round
				// boundary admits it.
				time.Sleep(500 * time.Millisecond)
			})
		}
		return nil
	}
	var rootWait func() ([]float64, error)
	rootAddr, rootWait = startCoordinator(t, root)

	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := 0; l < leaves; l++ {
		clientErrs[l] = make([]error, perLeaf)
		leaf := &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{
				NumClients: perLeaf,
				Initial:    append([]float64(nil), initial...),
			},
		}
		if l == 1 {
			leaf.Retry.Stop = stopLeaf1
		}
		waits[l] = startLeaf(t, leaf, vecShard(l), clientErrs[l])
	}

	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root should survive the leaf crash: %v", rootErr)
	}
	if len(global) != len(initial) {
		t.Fatalf("root global length %d, want %d", len(global), len(initial))
	}
	for l, wait := range waits {
		err := wait()
		if l == 1 {
			if !errors.Is(err, ErrClientStopped) {
				t.Fatalf("killed leaf returned %v, want ErrClientStopped", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		for i, cerr := range clientErrs[l] {
			if cerr != nil {
				t.Fatalf("leaf %d client %d: %v", l, i, cerr)
			}
		}
	}
	select {
	case wait := <-restartWait:
		if err := wait(); err != nil {
			t.Fatalf("restarted leaf: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("restarted leaf was never launched")
	}
	for i, err := range restartErrs {
		if err != nil {
			t.Fatalf("restarted leaf client %d: %v", i, err)
		}
	}
}

// TestTreeFederationAccuracy: a 4-leaf tree training real models must
// reach the same test accuracy as the flat in-process federation over an
// identically seeded roster. Rounds of nonlinear training amplify the
// tree's floating-point reassociation, so the models are compared on
// what the paper cares about — held-out accuracy — not parameter bits.
func TestTreeFederationAccuracy(t *testing.T) {
	const leaves, perLeaf, rounds = 4, 2, 6
	k := leaves * perLeaf

	refClients, initial, test := buildClients(t, k)
	refSrv := fl.NewServer(initial, refClients...)
	if err := refSrv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	refAcc := evalAccuracy(t, test, refSrv.Global())

	treeClients, initial2, _ := buildClients(t, k)
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial: initial2, AcceptPartials: true,
	}
	rootAddr, rootWait := startCoordinator(t, root)
	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := 0; l < leaves; l++ {
		clientErrs[l] = make([]error, perLeaf)
		leaf := &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{
				NumClients: perLeaf,
				Initial:    append([]float64(nil), initial2...),
			},
		}
		waits[l] = startLeaf(t, leaf, treeClients[l*perLeaf:(l+1)*perLeaf], clientErrs[l])
	}
	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	for l, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		for i, err := range clientErrs[l] {
			if err != nil {
				t.Fatalf("leaf %d client %d: %v", l, i, err)
			}
		}
	}

	treeAcc := evalAccuracy(t, test, global)
	if treeAcc < 0.35 {
		t.Fatalf("tree federation accuracy = %v, want ≥0.35", treeAcc)
	}
	if diff := math.Abs(treeAcc - refAcc); diff > 0.05 {
		t.Fatalf("tree accuracy %v vs flat %v (diff %v, want ≤0.05)", treeAcc, refAcc, diff)
	}
}

func evalAccuracy(t *testing.T, test *datasets.Dataset, global []float64) float64 {
	t.Helper()
	eval := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, test.In, test.NumClasses)
	if err := nn.SetFlatParams(eval.Params(), global); err != nil {
		t.Fatal(err)
	}
	return fl.Evaluate(eval, test, 32)
}
