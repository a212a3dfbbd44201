package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/tensor"
)

// Store persists completed experiment grid cells — one typed Table per
// (experiment id, scale, seed, training precision) — in the checksummed
// checkpoint container format, so a multi-hour sweep killed partway
// through does not redo finished cells on the next run. A nil *Store
// disables caching; corrupt or unreadable cells, including those written
// in an older table format, are treated as missing and recomputed.
type Store struct {
	// Dir is the cache directory; it is created on first Save.
	Dir string
}

// cellPath names the cache file for one grid cell. The f32 and f64 tiers
// measure different numbers, so the active precision is part of the key.
func (s *Store) cellPath(id string, cfg Config) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s_scale%d_seed%d_%s.cell",
		id, cfg.Scale, cfg.Seed, tensor.CurrentPrecision()))
}

// Load returns the cached table for a cell, with ok reporting whether a
// valid one exists.
func (s *Store) Load(id string, cfg Config) (t *Table, ok bool) {
	if s == nil {
		return nil, false
	}
	var tab Table
	if err := checkpoint.ReadFile(s.cellPath(id, cfg), checkpoint.KindTable,
		checkpoint.DefaultMaxBytes, &tab); err != nil {
		return nil, false
	}
	return &tab, true
}

// Save persists a completed cell atomically.
func (s *Store) Save(id string, cfg Config, t *Table) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("experiments: creating cell store: %w", err)
	}
	if err := checkpoint.WriteFile(s.cellPath(id, cfg), checkpoint.KindTable, t); err != nil {
		return fmt.Errorf("experiments: saving cell %s: %w", s.cellPath(id, cfg), err)
	}
	return nil
}

// Runner wraps r with cell caching: a hit returns the stored table, a miss
// runs r and persists the result before returning it.
func (s *Store) Runner(id string, r Runner) Runner {
	if s == nil {
		return r
	}
	return func(cfg Config) (*Table, error) {
		if t, ok := s.Load(id, cfg); ok {
			return t, nil
		}
		t, err := r(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.Save(id, cfg, t); err != nil {
			return nil, err
		}
		return t, nil
	}
}

// Repeat runs the registered experiment id over n consecutive seeds from
// cfg.Seed and merges them (n = 1 returns the single table as is). Each
// seed's table persists as its own grid cell, so an interrupted
// multi-seed sweep resumes from the completed seeds.
func (s *Store) Repeat(id string, cfg Config, n int) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return repeatRunner(id, s.Runner(id, r), cfg, n)
}
