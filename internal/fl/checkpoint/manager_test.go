package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/telemetry"
)

func TestManagerSaveLoad(t *testing.T) {
	m := &Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	if _, err := m.Load(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty manager: got %v, want ErrNotExist", err)
	}
	if err := m.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.NextRound != 7 || snap.Token != "deadbeef" {
		t.Fatalf("loaded wrong snapshot: %+v", snap)
	}
}

func TestManagerFallsBackToPrevOnCorruption(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	m := &Manager{Path: filepath.Join(t.TempDir(), "state.ckpt"), Metrics: met}

	good := sampleSnapshot()
	if err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	newer := sampleSnapshot()
	newer.State.NextRound = 9
	if err := m.Save(newer); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest generation in place; Load must detect it by
	// checksum and fall back to the previous one.
	data, err := os.ReadFile(m.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(m.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := m.Load()
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if snap.State.NextRound != 7 {
		t.Fatalf("fallback loaded round %d, want the previous generation's 7", snap.State.NextRound)
	}
	if met.corruptions.Value() != 1 {
		t.Fatalf("corruptions counter = %d, want 1", met.corruptions.Value())
	}
	if met.restores.Value() != 1 {
		t.Fatalf("restores counter = %d, want 1", met.restores.Value())
	}
}

func TestManagerTornWriteFallsBack(t *testing.T) {
	m := &Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	if err := m.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Second save tears: only the first 60% of the container lands.
	m.writeHook = faults.Truncated(0.6)
	newer := sampleSnapshot()
	newer.State.NextRound = 12
	if err := m.Save(newer); err != nil {
		t.Fatal(err)
	}
	m.writeHook = nil

	snap, err := m.Load()
	if err != nil {
		t.Fatalf("load after torn write: %v", err)
	}
	if snap.State.NextRound != 7 {
		t.Fatalf("loaded round %d, want the intact previous generation's 7", snap.State.NextRound)
	}
}

func TestManagerBothGenerationsCorruptErrors(t *testing.T) {
	m := &Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	for i := 0; i < 2; i++ {
		if err := m.Save(sampleSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{m.Path, m.PrevPath()} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Load(); err == nil {
		t.Fatal("load of two corrupt generations succeeded")
	}
}

func TestManagerMetricsOnWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	m := &Manager{Path: filepath.Join(t.TempDir(), "state.ckpt"), Metrics: met}
	if err := m.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if met.writes.Value() != 1 {
		t.Fatalf("writes counter = %d, want 1", met.writes.Value())
	}
	if met.writeDuration.Count() != 1 {
		t.Fatalf("write duration histogram count = %d, want 1", met.writeDuration.Count())
	}
	if met.bytes.Value() <= 0 {
		t.Fatalf("bytes gauge = %v, want > 0", met.bytes.Value())
	}
}
