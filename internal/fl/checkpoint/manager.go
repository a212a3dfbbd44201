package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/telemetry"
)

// Snapshot is the durable unit a federation writes at round boundaries:
// the engine's complete resumable state plus the session token TCP clients
// present when they reconnect after a coordinator restart.
type Snapshot struct {
	// Token identifies the federation session across restarts; empty for
	// in-process runs.
	Token string
	// State is the engine state captured at a round boundary.
	State fl.ServerState
}

// Metrics holds the checkpoint subsystem's telemetry. All methods are safe
// on a nil receiver, so instrumentation stays optional.
type Metrics struct {
	writes        *telemetry.Counter
	writeDuration *telemetry.Histogram
	bytes         *telemetry.Gauge
	restores      *telemetry.Counter
	corruptions   *telemetry.Counter
}

// NewMetrics registers the checkpoint metrics on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		writes: reg.Counter("checkpoint_writes_total",
			"Snapshots written durably."),
		writeDuration: reg.Histogram("checkpoint_write_duration_seconds",
			"Wall time of one durable snapshot write (encode+fsync+rename).",
			telemetry.DurationBuckets()),
		bytes: reg.Gauge("checkpoint_bytes",
			"Size in bytes of the most recent snapshot."),
		restores: reg.Counter("checkpoint_restores_total",
			"Snapshots successfully loaded for resume."),
		corruptions: reg.Counter("checkpoint_corruptions_total",
			"Snapshot loads that hit a corrupt or unreadable file."),
	}
}

func (m *Metrics) recordWrite(start time.Time, n int) {
	if m == nil {
		return
	}
	m.writes.Inc()
	m.writeDuration.Observe(time.Since(start).Seconds())
	m.bytes.Set(float64(n))
}

func (m *Metrics) recordRestore() {
	if m == nil {
		return
	}
	m.restores.Inc()
}

func (m *Metrics) recordCorruption() {
	if m == nil {
		return
	}
	m.corruptions.Inc()
}

// Manager owns one snapshot path and its rotation policy: Save writes
// atomically (temp file → fsync → rename, previous generation kept at
// Path+".prev"), Load validates the newest snapshot and falls back to the
// previous one when the newest is torn or corrupt.
type Manager struct {
	// Path is where the current snapshot lives.
	Path string
	// Metrics, when non-nil, receives write/restore/corruption telemetry.
	Metrics *Metrics
	// writeHook, when non-nil, may transform the encoded container bytes
	// immediately before they hit the disk. It exists for the torn-write
	// tests (internal/fl/faults.Truncated); production code leaves it nil.
	writeHook func([]byte) []byte
}

// PrevPath returns where the previous snapshot generation is kept.
func (m *Manager) PrevPath() string { return m.Path + ".prev" }

// Save durably persists snap.
func (m *Manager) Save(snap *Snapshot) error {
	start := time.Now()
	data, err := Encode(KindSnapshot, snap)
	if err != nil {
		return err
	}
	if m.writeHook != nil {
		data = m.writeHook(data)
	}
	if err := writeFileBytes(m.Path, data); err != nil {
		return err
	}
	m.Metrics.recordWrite(start, len(data))
	return nil
}

// Load reads the newest valid snapshot of at most DefaultMaxBytes. A
// corrupt or truncated current file is counted and skipped in favor of
// Path+".prev"; only when neither generation validates does Load fail. os.ErrNotExist (unwrapped via
// errors.Is) means no snapshot has ever been written.
func (m *Manager) Load() (*Snapshot, error) {
	snap, err := m.loadOne(m.Path)
	if err == nil {
		m.Metrics.recordRestore()
		return snap, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		// Fall through: a crash between the two renames of Save leaves
		// only the .prev generation on disk.
		if snap, perr := m.loadOne(m.PrevPath()); perr == nil {
			m.Metrics.recordRestore()
			return snap, nil
		}
		return nil, err
	}
	m.Metrics.recordCorruption()
	snap, perr := m.loadOne(m.PrevPath())
	if perr != nil {
		return nil, fmt.Errorf("checkpoint: %s unusable (%v) and no valid previous snapshot: %w",
			m.Path, err, perr)
	}
	m.Metrics.recordRestore()
	return snap, nil
}

func (m *Manager) loadOne(path string) (*Snapshot, error) {
	var snap Snapshot
	if err := ReadFile(path, KindSnapshot, DefaultMaxBytes, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
