package experiments

import (
	"errors"
	"runtime"
	"testing"
)

func TestRunIndexedOrdersResults(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	out, err := runIndexed(37, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunIndexedLowestErrorWins(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	e3, e7 := errors.New("cell 3"), errors.New("cell 7")
	_, err := runIndexed(16, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, e3
		case 7:
			return 0, e7
		}
		return i, nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("got error %v, want the lowest-index error %v", err, e3)
	}
}

// TestRepeatRunnerParallelMatchesSerial pins the sweep determinism
// contract: the aggregated table is byte-identical whether the seeds run on
// one worker or many.
func TestRepeatRunnerParallelMatchesSerial(t *testing.T) {
	runner := func(cfg Config) (*Table, error) {
		tab := &Table{ID: "par", Title: "par", Header: []string{"name", "value", "value2"}}
		tab.AddRow(label("metric"), f3(float64(cfg.Seed)*0.125),
			f3(float64(cfg.Seed*cfg.Seed)*0.01))
		return tab, nil
	}
	render := func(workers int) string {
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		out, err := repeatRunner("par", runner, Config{Seed: 3}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Fatalf("parallel repeat diverges from serial:\n%s\nvs\n%s", serial, parallel)
	}
}
