package faults

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
)

// echoClient returns the global parameters unchanged.
type echoClient struct{ id int }

func (c *echoClient) ID() int         { return c.id }
func (c *echoClient) NumSamples() int { return 10 }
func (c *echoClient) TrainLocal(_ int, global []float64) (fl.Update, error) {
	p := make([]float64, len(global))
	copy(p, global)
	return fl.Update{ClientID: c.id, Params: p, NumSamples: 10, TrainLoss: 1}, nil
}

// recyclingClient is an echoClient that also takes recycled updates back.
type recyclingClient struct{ echoClient }

func (*recyclingClient) RecycleUpdate([]float64) {}

// TestWrappersDoNotRecycle: every wrapper embeds the fl.Client interface,
// so its inner client's RecycleUpdate is not promoted and the server never
// hands a wrapper's (possibly rewritten or shared) update vector to the
// client underneath.
func TestWrappersDoNotRecycle(t *testing.T) {
	inner := &recyclingClient{echoClient{id: 1}}
	var _ fl.UpdateRecycler = inner
	for name, w := range map[string]fl.Client{
		"Flaky":          NewFlaky(inner, nil),
		"Slow":           NewSlow(inner, time.Millisecond, nil),
		"Corrupt":        NewCorrupt(inner, CorruptNaN, nil),
		"SignFlip":       NewSignFlip(inner, 1, nil),
		"ScaledUpdate":   NewScaledUpdate(inner, 2, nil),
		"Colluder":       NewColluder(inner, 1, 1, nil),
		"LabelDrift":     NewLabelDrift(inner, 1, 1, nil),
		"InflateSamples": NewInflateSamples(inner, 2, nil),
	} {
		if _, ok := w.(fl.UpdateRecycler); ok {
			t.Errorf("%s satisfies fl.UpdateRecycler", name)
		}
	}
}

func TestFlakyFailsOnlyScheduledRounds(t *testing.T) {
	c := NewFlaky(&echoClient{id: 1}, On(1, 3))
	for round := 0; round < 5; round++ {
		_, err := c.TrainLocal(round, []float64{1})
		wantFail := round == 1 || round == 3
		if wantFail && !errors.Is(err, ErrInjected) {
			t.Fatalf("round %d: err = %v, want ErrInjected", round, err)
		}
		if !wantFail && err != nil {
			t.Fatalf("round %d: unexpected err %v", round, err)
		}
	}
}

func TestSlowDelaysScheduledRounds(t *testing.T) {
	c := NewSlow(&echoClient{id: 1}, 30*time.Millisecond, On(2))
	start := time.Now()
	if _, err := c.TrainLocal(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("unscheduled round delayed %v", elapsed)
	}
	start = time.Now()
	if _, err := c.TrainLocal(2, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("scheduled round delayed only %v, want ≥30ms", elapsed)
	}
}

func TestCorruptModesAllFailValidation(t *testing.T) {
	global := []float64{1, 2, 3, 4}
	modes := []CorruptMode{CorruptNaN, CorruptInf, CorruptOversize, CorruptTruncate}
	for _, mode := range modes {
		c := NewCorrupt(&echoClient{id: 2}, mode, nil)
		u, err := c.TrainLocal(0, global)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := fl.ValidateUpdate(u, len(global)); err == nil {
			t.Fatalf("mode %d: corrupted update passed validation", mode)
		}
	}
	// Unscheduled rounds pass through untouched.
	c := NewCorrupt(&echoClient{id: 2}, CorruptNaN, On(5))
	u, err := c.TrainLocal(0, global)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.ValidateUpdate(u, len(global)); err != nil {
		t.Fatalf("unscheduled round corrupted: %v", err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(rand.New(rand.NewSource(9)), 50, 0.3)
	b := Schedule(rand.New(rand.NewSource(9)), 50, 0.3)
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("degenerate schedule of size %d", len(a))
	}
	for r := 0; r < 50; r++ {
		if a[r] != b[r] {
			t.Fatalf("schedules diverge at round %d", r)
		}
	}
}

func TestLimitConnDropsAfterBudget(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	lc := LimitConn(a, 10)
	if _, err := lc.Write(make([]byte, 10)); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := lc.Write([]byte{1}); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("write past budget: err = %v, want ErrConnDropped", err)
	}
	if _, err := lc.Read(make([]byte, 1)); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("read past budget: err = %v, want ErrConnDropped", err)
	}
}
