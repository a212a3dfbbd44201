package experiments

import (
	"errors"
	"reflect"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/tensor"
)

func TestStoreCachesCompletedCells(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	runs := 0
	r := s.Runner("probe", func(cfg Config) (*Table, error) {
		runs++
		tab := &Table{ID: "probe", Title: "probe", Header: []string{"seed", "value"}}
		tab.AddRow(label("seed"), value("%.0f%%", float64(cfg.Seed)))
		return tab, nil
	})
	cfg := Config{Scale: datasets.Quick, Seed: 42}

	first, err := r(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("runner executed %d times, want 1 (second call must hit the cell cache)", runs)
	}
	if !reflect.DeepEqual(second.Rows, first.Rows) {
		t.Fatalf("cached cell %v differs from computed %v", second.Rows, first.Rows)
	}

	// A different seed is a different grid cell.
	if _, err := r(Config{Scale: datasets.Quick, Seed: 43}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runner executed %d times, want 2 (new seed must miss)", runs)
	}
}

func TestStoreTreatsCorruptCellAsMiss(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	runs := 0
	r := s.Runner("probe", func(cfg Config) (*Table, error) {
		runs++
		return &Table{ID: "probe"}, nil
	})
	cfg := Config{Scale: datasets.Quick, Seed: 1}
	if _, err := r(cfg); err != nil {
		t.Fatal(err)
	}
	// Bit rot in the cached cell: the checksum catches it and the cell is
	// recomputed rather than served mangled.
	if err := faults.CorruptFile(s.cellPath("probe", cfg), 20); err != nil {
		t.Fatal(err)
	}
	if _, err := r(cfg); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runner executed %d times, want 2 (corrupt cell must read as a miss)", runs)
	}
}

func TestStoreNilDisablesCaching(t *testing.T) {
	var s *Store
	runs := 0
	r := s.Runner("probe", func(cfg Config) (*Table, error) {
		runs++
		return &Table{ID: "probe"}, nil
	})
	for i := 0; i < 2; i++ {
		if _, err := r(Quick()); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Fatalf("nil store executed runner %d times, want 2 (no caching)", runs)
	}
	if _, ok := s.Load("probe", Quick()); ok {
		t.Fatal("nil store reported a cache hit")
	}
}

func TestStorePropagatesRunnerError(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	boom := errors.New("boom")
	r := s.Runner("probe", func(cfg Config) (*Table, error) { return nil, boom })
	if _, err := r(Quick()); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the runner's error", err)
	}
	// A failed run must not leave a cell behind.
	if _, ok := s.Load("probe", Quick()); ok {
		t.Fatal("failed run cached a cell")
	}
}

// TestStoreKeysOnPrecision: the f32 and f64 tiers measure different
// numbers, so a cell saved under one is a miss under the other.
func TestStoreKeysOnPrecision(t *testing.T) {
	prev := tensor.CurrentPrecision()
	t.Cleanup(func() { tensor.SetPrecision(prev) })
	s := &Store{Dir: t.TempDir()}
	cfg := Quick()
	tensor.SetPrecision(tensor.F64)
	if err := s.Save("probe", cfg, &Table{ID: "probe"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("probe", cfg); !ok {
		t.Fatal("f64 cell missing right after saving it")
	}
	tensor.SetPrecision(tensor.F32)
	if _, ok := s.Load("probe", cfg); ok {
		t.Fatal("f32 run was served the cell computed under f64")
	}
}

// TestStoreTreatsTextCellAsMiss: a cell written with rendered-text rows
// (the table format before cells were typed) is recomputed, not misread.
func TestStoreTreatsTextCellAsMiss(t *testing.T) {
	type textTable struct {
		ID, Title string
		Header    []string
		Rows      [][]string
		Notes     []string
	}
	s := &Store{Dir: t.TempDir()}
	cfg := Quick()
	old := textTable{ID: "probe", Title: "probe", Header: []string{"acc"}, Rows: [][]string{{"0.500"}}}
	if err := checkpoint.WriteFile(s.cellPath("probe", cfg), checkpoint.KindTable, &old); err != nil {
		t.Fatal(err)
	}
	if tab, ok := s.Load("probe", cfg); ok {
		t.Fatalf("text-format cell read as a hit: %+v", tab)
	}
}
