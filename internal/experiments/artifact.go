package experiments

import (
	"fmt"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// Artifact is a trained model saved to disk by ciptrain and consumed by
// cipattack: the final global parameter vector plus everything needed to
// reconstruct the architecture and (for CIP) the evaluation perturbation.
type Artifact struct {
	Preset datasets.Preset
	Scale  datasets.Scale
	Seed   int64
	Arch   model.Arch

	// CIP is true for dual-channel CIP models.
	CIP   bool
	Alpha float64
	// T is client 0's perturbation (saved so the artifact's owner can
	// evaluate utility; an attacker tool must NOT use it).
	T []float64

	Params []float64
}

// maxArtifactBytes bounds how much of an artifact file LoadArtifact will
// read before giving up; see flcli's matching bound for rationale.
const maxArtifactBytes = 1 << 30

// Save writes the artifact atomically in the checksummed checkpoint
// container format, so a crash mid-save can never leave a silently
// truncated artifact behind.
func (a *Artifact) Save(path string) error {
	if err := checkpoint.WriteFile(path, checkpoint.KindArtifact, a); err != nil {
		return fmt.Errorf("experiments: saving artifact: %w", err)
	}
	return nil
}

// LoadArtifact reads an artifact written by Save. The file is validated
// (magic, kind, length, checksum) before decoding; a raw gob file from
// before the container format fails with checkpoint.ErrNotCheckpoint.
func LoadArtifact(path string) (*Artifact, error) {
	var a Artifact
	if err := checkpoint.ReadFile(path, checkpoint.KindArtifact, maxArtifactBytes, &a); err != nil {
		return nil, fmt.Errorf("experiments: loading artifact: %w", err)
	}
	return &a, nil
}

// Data reloads the dataset the artifact was trained on (generation is
// deterministic in the seed).
func (a *Artifact) Data() (*datasets.Data, error) {
	return datasets.Load(a.Preset, a.Scale, a.Seed)
}

// Net rebuilds the model the way the runner builds it, from seed+1. For CIP
// artifacts, withT selects whether the saved perturbation is applied
// (owner's view) or the zero perturbation (attacker's view).
func (a *Artifact) Net(withT bool) (nn.Layer, error) {
	d, err := a.Data()
	if err != nil {
		return nil, err
	}
	net := a.factory().net(fedEnv{train: d.Train, arch: a.Arch, seed: a.Seed})
	if err := nn.SetFlatParams(net.Params(), a.Params); err != nil {
		return nil, err
	}
	if m, ok := net.(*core.CIPModel); ok && withT {
		if len(a.T) != m.T.Size() {
			return nil, fmt.Errorf("experiments: artifact perturbation has %d values, want %d",
				len(a.T), m.T.Size())
		}
		copy(m.T.Data, a.T)
	}
	return net, nil
}

func (a *Artifact) factory() clientFactory {
	if a.CIP {
		return cipClients{a.Alpha}
	}
	return plain{}
}

// TrainArtifact runs a federation on the preset and returns the artifact.
// alpha > 0 selects CIP; alpha == 0 trains the undefended legacy model.
// When reg is non-nil the federation records round metrics and the CIP
// trainer records Step I/II losses and epoch timings into it (cmd/ciptrain
// serves these under -metrics-addr). A non-nil spec makes the run durable:
// the federation snapshots through it, and an interrupted run
// (fl.ErrStopped, process death) rerun with spec.Resume continues where
// the last snapshot left off, producing a bit-identical artifact. policy,
// when non-nil, attaches quorum / robust-aggregation / quarantine
// semantics; the reputation tracker's state rides the snapshot, so a
// resumed run keeps its quarantine decisions.
func TrainArtifact(p datasets.Preset, scale datasets.Scale, seed int64,
	clients, rounds int, alpha float64, reg *telemetry.Registry,
	spec *CheckpointSpec, policy *fl.RoundPolicy) (*Artifact, error) {
	d, err := datasets.Load(p, scale, seed)
	if err != nil {
		return nil, err
	}
	arch := archFor(p, scale)
	a := &Artifact{Preset: p, Scale: scale, Seed: seed, Arch: arch, CIP: alpha > 0, Alpha: alpha}
	run, err := runFed(d.Train, arch, clients, rounds, seed, a.factory(),
		fedOpts{augment: d.Augment, telemetry: reg, ckpt: spec, policy: policy})
	if err != nil {
		return nil, err
	}
	a.Params = run.Global
	if a.CIP {
		a.T = append([]float64(nil), run.cip(0).Perturbation().T.Data...)
	}
	return a, nil
}
