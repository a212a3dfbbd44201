package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func stubRunner(vals map[int64]float64) Runner {
	return func(cfg Config) (*Table, error) {
		t := &Table{ID: "stub", Title: "stub", Header: []string{"name", "value"}}
		t.AddRow(label("metric"), f3(vals[cfg.Seed]))
		return t, nil
	}
}

// TestRepeatRunnerAggregates: value cells aggregate their unrounded
// samples to mean±std in their own verb, and config labels that read as
// numbers pass through verbatim.
func TestRepeatRunnerAggregates(t *testing.T) {
	r := func(cfg Config) (*Table, error) {
		i := cfg.Seed - 1
		tab := &Table{ID: "stub", Title: "stub", Notes: []string{"a note"},
			Header: []string{"lambda_t", "#clients", "alpha", "acc", "holds", "tiny"}}
		tab.AddRow(label("1e-6"), label("2"), label("0.9"),
			f3([]float64{0.4, 0.6, 0.5}[i]),
			value("%.0f%%", []float64{97, 94, 91}[i]),
			// Rounded to "0.001", "0.001", "0.002" these average to 0.001;
			// the samples themselves average to 0.00157.
			f3([]float64{0.0014, 0.0014, 0.0019}[i]))
		return tab, nil
	}
	out, err := repeatRunner("stub", r, Config{Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1e-6", "2", "0.9", "0.500±0.082", "94%±2%", "0.002±0.000"}
	for i, w := range want {
		if got := out.Rows[0][i].String(); got != w {
			t.Errorf("cell %d (%s) = %q, want %q", i, out.Header[i], got, w)
		}
	}
	if !strings.Contains(out.Title, "3 seeds") {
		t.Fatalf("title should mention seeds: %q", out.Title)
	}
	if len(out.Notes) != 1 || out.Notes[0] != "seed 1: a note" {
		t.Fatalf("notes = %q, want the first seed's note labelled with its seed", out.Notes)
	}

	single, err := repeatRunner("stub", r, Config{Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := r(Config{Seed: 1})
	if single.String() != direct.String() {
		t.Fatalf("n=1 repeat changed the table:\n%s\nvs\n%s", single, direct)
	}
}

func TestRepeatRunnerLabelMismatch(t *testing.T) {
	for name, cell := range map[string]func(seed int64) Cell{
		"label text": func(seed int64) Cell { return label(fmt.Sprintf("label-%d", seed)) },
		"label vs value": func(seed int64) Cell {
			if seed == 1 {
				return label("0.5")
			}
			return f3(0.5)
		},
	} {
		r := func(cfg Config) (*Table, error) {
			t := &Table{ID: "stub", Header: []string{"name"}}
			t.AddRow(cell(cfg.Seed))
			return t, nil
		}
		if _, err := repeatRunner("stub", r, Config{Seed: 1}, 2); err == nil {
			t.Errorf("%s: expected error when cells differ across seeds", name)
		}
	}
}

func TestRepeatRunnerValidatesN(t *testing.T) {
	if _, err := repeatRunner("stub", stubRunner(nil), Config{}, 0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

// TestRepeatUnknownID: the registry lookup rejects an unknown id and lists
// the known ones, with and without a cell cache.
func TestRepeatUnknownID(t *testing.T) {
	for _, s := range []*Store{nil, {Dir: t.TempDir()}} {
		_, err := s.Repeat("nope", Quick(), 1)
		if err == nil || !strings.Contains(err.Error(), "theorem1") {
			t.Fatalf("store %v: err = %v, want an unknown-id error listing the known ids", s, err)
		}
	}
}

func TestRepeatRunnerPropagatesErrors(t *testing.T) {
	r := func(cfg Config) (*Table, error) {
		if cfg.Seed == 2 {
			return nil, fmt.Errorf("boom")
		}
		tb := &Table{Header: []string{"v"}}
		tb.AddRow(f3(1))
		return tb, nil
	}
	if _, err := repeatRunner("stub", r, Config{Seed: 1}, 3); err == nil {
		t.Fatal("expected propagated error from a failing seed")
	}
}
