package experiments

import (
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/model"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long-header"},
	}
	tbl.AddRow(label("1"), f3(2))
	tbl.Notes = append(tbl.Notes, "a note")
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "long-header", "2.000", "a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryMatchesDesignDoc(t *testing.T) {
	// DESIGN.md §4 promises these experiment ids.
	want := []string{"fig1", "table1", "table2", "fig4", "fig5", "fig6",
		"table3", "fig7", "fig8", "table4", "table5", "table6", "table7",
		"table8", "table9", "k3", "table10", "table11", "ablation", "theorem1"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

// TestRunUnknownExperiment: a single uncached run (a nil Store, n = 1) of
// an id that is not registered fails with an error and no table.
func TestRunUnknownExperiment(t *testing.T) {
	var s *Store
	tab, err := s.Repeat("nope", Quick(), 1)
	if err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
	if tab != nil {
		t.Fatalf("unknown experiment id returned a table: %+v", tab)
	}
}

func TestNoniidClasses(t *testing.T) {
	if got := noniidClasses(100); got != 20 {
		t.Errorf("noniidClasses(100) = %d, want 20 (the paper's ratio)", got)
	}
	if got := noniidClasses(20); got != 4 {
		t.Errorf("noniidClasses(20) = %d, want 4", got)
	}
	if got := noniidClasses(5); got != 2 {
		t.Errorf("noniidClasses(5) = %d, want the floor of 2", got)
	}
}

func TestMatchClasses(t *testing.T) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionByClass(d.Train, 2, 4, rand.New(rand.NewSource(1)))
	matched := matchClasses(d.Test, shards[0])
	owned := map[int]bool{}
	for _, y := range shards[0].Y {
		owned[y] = true
	}
	if matched.Len() == 0 {
		t.Fatal("matchClasses returned no samples")
	}
	for _, y := range matched.Y {
		if !owned[y] {
			t.Fatalf("matchClasses kept class %d not owned by the shard", y)
		}
	}
}

func TestArchForScales(t *testing.T) {
	if got := archFor(datasets.Purchase50, datasets.Quick); got != model.MLP {
		t.Errorf("Purchase-50 arch = %v, want MLP", got)
	}
	if got := archFor(datasets.CIFAR100, datasets.Quick); got != model.VGG {
		t.Errorf("quick image arch = %v, want VGG", got)
	}
	if got := archFor(datasets.CIFAR100, datasets.Full); got != model.ResNet {
		t.Errorf("full image arch = %v, want ResNet (as the paper uses)", got)
	}
}

func TestEqualize(t *testing.T) {
	d, err := datasets.Load(datasets.CHMNIST, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.Train.Split(100)
	m, n := equalize(a, b)
	if m.Len() != n.Len() {
		t.Fatalf("equalize sizes differ: %d vs %d", m.Len(), n.Len())
	}
}

func TestLastRounds(t *testing.T) {
	got := lastRounds(10, 3)
	for _, r := range []int{7, 8, 9} {
		if !got[r] {
			t.Errorf("round %d should be kept", r)
		}
	}
	if len(got) != 3 {
		t.Errorf("kept %d rounds, want 3", len(got))
	}
	if edge := lastRounds(2, 5); len(edge) != 2 {
		t.Errorf("lastRounds(2,5) kept %d rounds, want 2", len(edge))
	}
}

// TestLoadArtifactRefusesRawGob: an artifact written as a bare gob stream
// (the format before the checkpoint container) is refused as not a
// container — cleanly, whether it is whole or torn.
func TestLoadArtifactRefusesRawGob(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "raw-*.gob")
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&Artifact{Seed: 3, Params: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"whole": raw, "torn": raw[:len(raw)/2]} {
		path := filepath.Join(t.TempDir(), name+".gob")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifact(path); !errors.Is(err, checkpoint.ErrNotCheckpoint) {
			t.Fatalf("%s raw gob artifact: err = %v, want ErrNotCheckpoint", name, err)
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	a, err := TrainArtifact(datasets.CHMNIST, datasets.Quick, 1, 1, 2, 0.5, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.CIP || back.Alpha != 0.5 || back.Preset != datasets.CHMNIST {
		t.Fatalf("artifact metadata lost: %+v", back)
	}
	if len(back.Params) != len(a.Params) {
		t.Fatalf("params length %d, want %d", len(back.Params), len(a.Params))
	}
	d, err := back.Data()
	if err != nil {
		t.Fatal(err)
	}
	// Owner view and attacker view must both reconstruct and run.
	owner, err := back.Net(true)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := back.Net(false)
	if err != nil {
		t.Fatal(err)
	}
	if acc := fl.Evaluate(owner, d.Test, 64); acc < 0 || acc > 1 {
		t.Fatalf("owner accuracy out of range: %v", acc)
	}
	if acc := fl.Evaluate(attacker, d.Test, 64); acc < 0 || acc > 1 {
		t.Fatalf("attacker accuracy out of range: %v", acc)
	}
}

func TestLegacyArtifact(t *testing.T) {
	a, err := TrainArtifact(datasets.Purchase50, datasets.Quick, 1, 2, 2, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.CIP {
		t.Fatal("alpha=0 should produce a legacy artifact")
	}
	if a.Arch != model.MLP {
		t.Fatalf("Purchase-50 artifact arch = %v, want MLP", a.Arch)
	}
	net, err := a.Net(false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Data()
	if err != nil {
		t.Fatal(err)
	}
	if acc := fl.Evaluate(net, d.Test, 64); acc <= 0 {
		t.Fatalf("legacy artifact accuracy = %v, want > 0 after training", acc)
	}
}

// TestTable11RunsQuickly exercises one real experiment end to end in the
// unit suite (the cheapest one with full coverage of both run paths).
func TestTable11RunsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are skipped in -short mode")
	}
	tbl, err := Table11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table XI has %d rows, want 3 architectures", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if v := row[3].Vals; len(v) != 1 || v[0] <= 0 {
			t.Fatalf("param overhead cell %q should hold one positive value", row[3])
		}
	}
}
