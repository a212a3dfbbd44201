package checkpoint_test

// End-to-end crash harness for the in-process engine: a CIP federation is
// killed mid-run (simulated process death via faults.CrashAt), rebuilt
// from scratch, restored from its durable snapshot, and run to
// completion. The acceptance bar is bit-identity — the resumed run's
// final global parameters and every client's final local state must equal
// an uninterrupted run's exactly, including when the crash lands between
// checkpoint boundaries (deterministic replay) and when the newest
// snapshot generation is torn or bit-rotted (fallback to the previous
// one).

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

const (
	harnessClients = 2
	harnessRounds  = 6
)

// buildFederation constructs an identically seeded durable CIP federation
// of stateful clients (serializable RNG, tracked data order, capturable
// secret t). Calling it twice yields two federations that, run the same
// way, produce bit-identical results.
func buildFederation(t *testing.T) *fl.Server {
	t.Helper()
	train, _, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 3, Train: 60, Test: 30, C: 1, H: 6, W: 6,
		Signal: 0.5, Noise: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, harnessClients, rand.New(rand.NewSource(1)))
	cfg := core.TrainConfig{
		Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
		BatchSize: 16, LR: fl.DecaySchedule(0.08, harnessRounds), Momentum: 0.9,
	}
	clients := make([]fl.Client, harnessClients)
	var initial []float64
	for i := 0; i < harnessClients; i++ {
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(7)), model.VGG,
			train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		clients[i] = core.NewStatefulClient(i, dual, shards[i], cfg,
			core.BlendSeed(1, i), int64(20+i))
	}
	return fl.NewServer(initial, clients...)
}

// finalState captures a finished server's full durable state — globals
// plus every client blob — for bit-level comparison.
func finalState(t *testing.T, srv *fl.Server) *fl.ServerState {
	t.Helper()
	st, err := srv.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func assertBitIdentical(t *testing.T, want, got *fl.ServerState) {
	t.Helper()
	if len(want.Global) != len(got.Global) {
		t.Fatalf("global length %d vs %d", len(want.Global), len(got.Global))
	}
	for i := range want.Global {
		if want.Global[i] != got.Global[i] {
			t.Fatalf("global[%d]: %v vs %v — resume is not bit-identical", i, want.Global[i], got.Global[i])
		}
	}
	if len(want.Clients) != len(got.Clients) {
		t.Fatalf("client count %d vs %d", len(want.Clients), len(got.Clients))
	}
	for id, blob := range want.Clients {
		if !bytes.Equal(blob, got.Clients[id]) {
			t.Fatalf("client %d final state diverged — local training replay is not deterministic", id)
		}
	}
}

// runBaseline runs an uninterrupted durable federation under policy (nil
// is fail-stop) to completion and returns its final state.
func runBaseline(t *testing.T, every int, policy *fl.RoundPolicy) *fl.ServerState {
	t.Helper()
	srv := buildFederation(t)
	srv.Policy = policy
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "base.ckpt")}
	err := srv.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: every,
		Save: func(st *fl.ServerState) error {
			return mgr.Save(&checkpoint.Snapshot{State: *st})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return finalState(t, srv)
}

func TestCrashResumeBitIdenticalInProcess(t *testing.T) {
	cases := []struct {
		name       string
		every      int
		crashAfter int
		// resumeRound is the snapshot round the restart must land on: the
		// last checkpoint at or before the crash.
		resumeRound int
		// policy is shared by every run of the case; the sampling policy
		// holds no state.
		policy *fl.RoundPolicy
	}{
		{"crash on checkpoint boundary", 1, 3, 4, nil},
		// With a cadence of 3, checkpoints land after rounds 2 and 5. A
		// crash after round 3 rewinds to round 3 and replays it.
		{"crash between checkpoints", 3, 3, 3, nil},
		// One of the two clients trains per round. The cohort is a function
		// of (SampleSeed, round), so the replayed round and every later one
		// draw the schedule the uninterrupted run drew.
		{"sampled crash between checkpoints", 3, 3, 3, &fl.RoundPolicy{SampleFraction: 0.5, SampleSeed: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runBaseline(t, tc.every, tc.policy)

			mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
			save := func(st *fl.ServerState) error {
				return mgr.Save(&checkpoint.Snapshot{State: *st})
			}

			crashed := buildFederation(t)
			crashed.Policy = tc.policy
			err := crashed.RunWithOptions(harnessRounds, fl.RunOptions{
				CheckpointEvery: tc.every,
				Save:            save,
				AfterRound:      faults.CrashAt(tc.crashAfter),
			})
			if !errors.Is(err, faults.ErrCrash) {
				t.Fatalf("crashed run: got %v, want ErrCrash", err)
			}

			// Process death: everything in memory is gone. Rebuild the
			// federation from its seeds and restore from disk.
			resumed := buildFederation(t)
			resumed.Policy = tc.policy
			snap, err := mgr.Load()
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.RestoreState(&snap.State); err != nil {
				t.Fatal(err)
			}
			if resumed.Round() != tc.resumeRound {
				t.Fatalf("restored to round %d, want %d", resumed.Round(), tc.resumeRound)
			}
			err = resumed.RunWithOptions(harnessRounds, fl.RunOptions{
				CheckpointEvery: tc.every, Save: save,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, finalState(t, resumed))
		})
	}
}

// TestCrashResumeSurvivesTornSnapshot corrupts the newest snapshot
// generation after the crash (bit rot / torn write discovered only at
// restart). The restore must detect it by checksum, fall back to the
// previous generation, replay the extra round deterministically, and
// still finish bit-identical.
func TestCrashResumeSurvivesTornSnapshot(t *testing.T) {
	want := runBaseline(t, 1, nil)

	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	save := func(st *fl.ServerState) error {
		return mgr.Save(&checkpoint.Snapshot{State: *st})
	}

	crashed := buildFederation(t)
	err := crashed.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: 1,
		Save:            save,
		AfterRound:      faults.CrashAt(3),
	})
	if !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("crashed run: got %v, want ErrCrash", err)
	}
	// The round-3 snapshot was mid-write when the process died.
	if err := faults.CorruptFile(mgr.Path, 40); err != nil {
		t.Fatal(err)
	}

	resumed := buildFederation(t)
	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(&snap.State); err != nil {
		t.Fatal(err)
	}
	if resumed.Round() != 3 {
		t.Fatalf("fallback restored to round %d, want the previous generation's 3", resumed.Round())
	}
	err = resumed.RunWithOptions(harnessRounds, fl.RunOptions{CheckpointEvery: 1, Save: save})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, finalState(t, resumed))
}

// TestStopResumeBitIdentical covers the graceful path the CLI signal
// handlers use: Stop ends the run at a round boundary with a final
// snapshot, and a later resume finishes bit-identically.
func TestStopResumeBitIdentical(t *testing.T) {
	want := runBaseline(t, 2, nil)

	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	save := func(st *fl.ServerState) error {
		return mgr.Save(&checkpoint.Snapshot{State: *st})
	}

	stop := make(chan struct{})
	stopped := buildFederation(t)
	err := stopped.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: 2,
		Save:            save,
		AfterRound: func(round int) error {
			if round == 2 { // an odd boundary: forces the final extra snapshot
				close(stop)
			}
			return nil
		},
		Stop: stop,
	})
	if !errors.Is(err, fl.ErrStopped) {
		t.Fatalf("stopped run: got %v, want ErrStopped", err)
	}

	resumed := buildFederation(t)
	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(&snap.State); err != nil {
		t.Fatal(err)
	}
	if resumed.Round() != 3 {
		t.Fatalf("resumed at round %d, want 3 (final snapshot at the stop boundary)", resumed.Round())
	}
	err = resumed.RunWithOptions(harnessRounds, fl.RunOptions{CheckpointEvery: 2, Save: save})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, finalState(t, resumed))
}
