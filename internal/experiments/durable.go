package experiments

import (
	"errors"
	"fmt"
	"os"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
)

// CheckpointSpec makes an in-process experiment federation durable: the
// run snapshots to Path on the Every cadence, stops cleanly on Stop, and —
// when Resume is set — continues from the last valid snapshot instead of
// round 0. A resumed run is bit-identical to one that was never
// interrupted.
type CheckpointSpec struct {
	// Path is the snapshot location (the previous generation is kept at
	// Path+".prev").
	Path string
	// Every is the snapshot cadence in rounds (≤ 1 means every round).
	Every int
	// Resume restores from Path when a valid snapshot exists there; with
	// no snapshot on disk the run starts fresh.
	Resume bool
	// Stop ends the run at the next round boundary with fl.ErrStopped
	// after writing a final snapshot.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives checkpoint write/restore/corruption
	// telemetry.
	Metrics *checkpoint.Metrics
	// AfterRound is the crash-injection hook (internal/fl/faults.CrashAt);
	// production runs leave it nil.
	AfterRound func(round int) error
}

// runServer runs srv to the absolute round count — durably when spec is
// non-nil, plain otherwise.
func runServer(srv *fl.Server, rounds int, spec *CheckpointSpec) error {
	if spec == nil {
		return srv.Run(rounds)
	}
	mgr := &checkpoint.Manager{Path: spec.Path, Metrics: spec.Metrics}
	if spec.Resume {
		snap, err := mgr.Load()
		switch {
		case err == nil:
			if err := srv.RestoreState(&snap.State); err != nil {
				return fmt.Errorf("experiments: restoring snapshot %s: %w", spec.Path, err)
			}
		case errors.Is(err, os.ErrNotExist):
			// Nothing durable yet: start fresh.
		default:
			return fmt.Errorf("experiments: loading snapshot %s: %w", spec.Path, err)
		}
	}
	return srv.RunWithOptions(rounds, fl.RunOptions{
		CheckpointEvery: spec.Every,
		Save: func(st *fl.ServerState) error {
			return mgr.Save(&checkpoint.Snapshot{State: *st})
		},
		Stop:       spec.Stop,
		AfterRound: spec.AfterRound,
	})
}
