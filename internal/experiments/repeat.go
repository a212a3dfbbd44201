package experiments

import "fmt"

// repeatRunner runs r n times with consecutive seeds and merges the
// tables: every value cell collects one sample per seed and renders as
// mean±std, and label cells must agree across seeds. Single-seed tables
// are point estimates; the spread quantifies how much of a reported gap is
// run-to-run noise. With n = 1 the one table is returned unchanged.
func repeatRunner(id string, r Runner, cfg Config, n int) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: Repeat needs n ≥ 1, got %d", n)
	}
	// Seeds are independent runs; fan them out and merge index-addressed
	// (see parallel.go), so the aggregate is identical to the serial loop.
	tables, err := runIndexed(n, func(i int) (*Table, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		t, err := r(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: repeat %d of %s: %w", i, id, err)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	base := tables[0]
	if n == 1 {
		return base, nil
	}

	out := &Table{
		ID:     base.ID,
		Title:  fmt.Sprintf("%s (mean±std over %d seeds)", base.Title, n),
		Header: base.Header,
	}
	for _, note := range base.Notes {
		out.Notes = append(out.Notes, fmt.Sprintf("seed %d: %s", cfg.Seed, note))
	}
	for ri, baseRow := range base.Rows {
		row := make([]Cell, len(baseRow))
		for ci, c := range baseRow {
			row[ci] = Cell{Label: c.Label, Verb: c.Verb}
			for _, t := range tables {
				if ri >= len(t.Rows) || ci >= len(t.Rows[ri]) {
					return nil, fmt.Errorf("experiments: repeat of %s produced ragged tables", id)
				}
				tc := t.Rows[ri][ci]
				if tc.Label != c.Label || tc.Verb != c.Verb {
					return nil, fmt.Errorf(
						"experiments: repeat of %s: cell (%d,%d) differs across seeds: %q vs %q",
						id, ri, ci, c, tc)
				}
				row[ci].Vals = append(row[ci].Vals, tc.Vals...)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
