// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment is a function from a Config to a
// Table whose rows/series mirror the paper's artifact; the
// mapping from experiment id to paper artifact is DESIGN.md §4, and the
// paper-vs-measured comparison lives in EXPERIMENTS.md.
//
// All experiments run at two scales: Quick (seconds to a couple of
// minutes, used by CI and `go test -bench`) and Full (longer sweeps closer
// to the paper's grid). Trends and orderings, not absolute accuracies, are
// the reproduction target (see DESIGN.md §2 for the substitution
// rationale).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/metrics"
)

// Config selects the scale and base seed of an experiment run.
type Config struct {
	Scale datasets.Scale
	Seed  int64
}

// Quick returns the CI-scale config used by tests and benchmarks.
func Quick() Config { return Config{Scale: datasets.Quick, Seed: 1} }

// Table is an experiment artifact: the rows the paper's table or figure
// reports, as typed cells that String renders.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []string
}

// Cell is one table entry. A label is config-derived text (a grid
// coordinate, a hyperparameter, a defense name) and passes through a
// multi-seed aggregate verbatim. A value is a measurement: Vals holds it,
// one sample per seed, and Verb is the fmt verb that renders it.
type Cell struct {
	Label string
	Verb  string
	Vals  []float64
}

func label(s string) Cell { return Cell{Label: s} }

func value(verb string, v float64) Cell { return Cell{Verb: verb, Vals: []float64{v}} }

// String renders a label as its text, a single-seed value with its verb,
// and a multi-seed value as mean±std in that verb.
func (c Cell) String() string {
	switch len(c.Vals) {
	case 0:
		return c.Label
	case 1:
		return fmt.Sprintf(c.Verb, c.Vals[0])
	}
	return fmt.Sprintf(c.Verb+"±"+c.Verb, metrics.Mean(c.Vals), metrics.Std(c.Vals))
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	text := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		text[r] = make([]string, len(row))
		for i, c := range row {
			text[r][i] = c.String()
			if i < len(widths) && len(text[r][i]) > widths[i] {
				widths[i] = len(text[r][i])
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range text {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// Registry maps experiment ids (DESIGN.md §4) to their runners.
var Registry = map[string]Runner{
	"fig1":     Fig1,
	"table1":   Table1,
	"table2":   Table2,
	"fig4":     Fig4,
	"fig5":     Fig5,
	"fig6":     Fig6,
	"table3":   Table3,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"table4":   Table4,
	"table5":   Table5,
	"table6":   Table6,
	"table7":   Table7,
	"table8":   Table8,
	"table9":   Table9,
	"k3":       Knowledge3Exp,
	"table10":  Table10,
	"table11":  Table11,
	"ablation": Ablation,
	"theorem1": Theorem1,
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func f3(v float64) Cell { return value("%.3f", v) }

// Every attack-accuracy column carries the field's metrics beside it: the
// threshold-free ROC-AUC and the true-positive rate at 0.1 % and 1 %
// false-positive rate, the low-FPR regime that LiRA (Carlini et al.) and
// the MI survey literature report. attackCols is the header for an
// accuracy column named acc, attackCells the matching cells.
func attackCols(acc string) []string {
	return []string{acc, "AUC", "TPR@0.1%", "TPR@1%"}
}

func attackCells(r attacks.Result) []Cell {
	return []Cell{f3(r.Accuracy()), f3(r.AUC()), f3(r.TPRAtFPR(0.001)), f3(r.TPRAtFPR(0.01))}
}
