package robust

import (
	"math"
	"testing"
)

// attackRound feeds one round where client `bad` deviates maximally and the
// rest sit at the median distance.
func attackRound(r *Reputation, ids []int, bad int) {
	dists := make([]float64, len(ids))
	for i, id := range ids {
		dists[i] = 1
		if id == bad {
			dists[i] = 100
		}
	}
	r.ObserveDeviations(ids, dists)
	r.EndRound(ids)
}

func cleanRound(r *Reputation, ids []int) {
	dists := make([]float64, len(ids))
	for i := range dists {
		dists[i] = 1 + 0.01*float64(i)
	}
	r.ObserveDeviations(ids, dists)
	r.EndRound(ids)
}

func TestQuarantineProgression(t *testing.T) {
	r := NewReputation(0)
	ids := []int{0, 1, 2, 3, 4}
	if r.StateOf(3) != Healthy {
		t.Fatalf("unknown client state = %v, want healthy", r.StateOf(3))
	}
	attackRound(r, ids, 3)
	// One round at sample 1.0 with α=0.4: score 0.4 < 0.5 → still healthy.
	if got := r.StateOf(3); got != Healthy {
		t.Fatalf("after 1 attack round: state = %v, want healthy", got)
	}
	attackRound(r, ids, 3)
	// score 0.64 ≥ 0.5 → suspect (streak 1 of QuarantineAfter=2).
	if got := r.StateOf(3); got != Suspect {
		t.Fatalf("after 2 attack rounds: state = %v, want suspect", got)
	}
	attackRound(r, ids, 3)
	if got := r.StateOf(3); got != Quarantined {
		t.Fatalf("after 3 attack rounds: state = %v, want quarantined", got)
	}
	if !r.Blocked(3) {
		t.Fatal("quarantined client not Blocked")
	}
	if r.QuarantinedCount() != 1 {
		t.Fatalf("QuarantinedCount = %d, want 1", r.QuarantinedCount())
	}
	for _, id := range []int{0, 1, 2, 4} {
		if r.StateOf(id) != Healthy {
			t.Fatalf("honest client %d state = %v, want healthy", id, r.StateOf(id))
		}
		if r.Blocked(id) {
			t.Fatalf("honest client %d is blocked", id)
		}
	}
	// Quarantine is permanent.
	for i := 0; i < 20; i++ {
		cleanRound(r, []int{0, 1, 2, 4})
	}
	if !r.Blocked(3) {
		t.Fatal("permanent quarantine released the client")
	}
}

func TestSuspectRecovers(t *testing.T) {
	r := NewReputation(0)
	ids := []int{0, 1, 2}
	attackRound(r, ids, 1)
	attackRound(r, ids, 1)
	if r.StateOf(1) != Suspect {
		t.Fatalf("state = %v, want suspect", r.StateOf(1))
	}
	// A suspect that turns clean decays below releaseScore and recovers
	// before reaching quarantine.
	for i := 0; i < 4; i++ {
		cleanRound(r, ids)
	}
	if got := r.StateOf(1); got != Healthy {
		t.Fatalf("after clean rounds: state = %v (score %.3f), want healthy", got, r.ScoreOf(1))
	}
	if r.QuarantinedCount() != 0 {
		t.Fatalf("QuarantinedCount = %d, want 0", r.QuarantinedCount())
	}
}

func quarantine(t *testing.T, r *Reputation, ids []int, bad int) {
	t.Helper()
	for i := 0; i < 10 && !r.Blocked(bad); i++ {
		attackRound(r, ids, bad)
	}
	if !r.Blocked(bad) {
		t.Fatalf("client %d never quarantined", bad)
	}
}

func TestViolationsEscalate(t *testing.T) {
	r := NewReputation(0)
	ids := []int{0, 1}
	for i := 0; i < 3 && !r.Blocked(1); i++ {
		r.ObserveViolation(1)
		r.EndRound(ids)
	}
	if !r.Blocked(1) {
		t.Fatal("repeat validation violations never quarantined the client")
	}
	if rec := r.Records()[1]; rec.Violations != 3 {
		t.Fatalf("violations = %d, want 3", rec.Violations)
	}
}

func TestEndRoundReportsChanges(t *testing.T) {
	r := NewReputation(0)
	ids := []int{0, 1, 2}
	attackRound(r, ids, 0) // score 0.4, no transitions yet
	r.ObserveDeviations(ids, []float64{100, 1, 1})
	if changed := r.EndRound(ids); len(changed) != 1 || changed[0] != 0 {
		t.Fatalf("changed = %v, want [0]", changed)
	}
}

func TestObserveDeviationsDegenerate(t *testing.T) {
	r := NewReputation(0)
	// All-zero distances: no honest scale, nobody should be flagged.
	r.ObserveDeviations([]int{0, 1}, []float64{0, 0})
	r.EndRound([]int{0, 1})
	if r.ScoreOf(0) != 0 || r.ScoreOf(1) != 0 {
		t.Fatalf("degenerate round scored clients: %v %v", r.ScoreOf(0), r.ScoreOf(1))
	}
	// ...except non-finite rows, which are always maximal evidence.
	r.ObserveDeviations([]int{0, 1}, []float64{0, math.Inf(1)})
	r.EndRound([]int{0, 1})
	if r.ScoreOf(1) <= r.ScoreOf(0) {
		t.Fatalf("poisoned row (%.2f) not scored above clean row (%.2f)",
			r.ScoreOf(1), r.ScoreOf(0))
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	r := NewReputation(0)
	ids := []int{0, 1, 2, 3, 4}
	quarantine(t, r, ids, 4)
	attackRound(r, ids, 2) // leave a partial score on client 2 too
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A restart must not amnesty the attacker: restore into a fresh tracker
	// and check every record survived bit-for-bit.
	fresh := NewReputation(0)
	if err := fresh.Restore(blob); err != nil {
		t.Fatal(err)
	}
	want, got := r.Records(), fresh.Records()
	if len(want) != len(got) {
		t.Fatalf("restored %d records, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("client %d missing after restore", id)
		}
		if g != w {
			t.Fatalf("client %d record %+v, want %+v", id, g, w)
		}
	}
	if !fresh.Blocked(4) {
		t.Fatal("restore amnestied the quarantined client")
	}

	// The two trackers must evolve identically from here.
	attackRound(r, ids, 2)
	attackRound(fresh, ids, 2)
	if r.StateOf(2) != fresh.StateOf(2) || r.ScoreOf(2) != fresh.ScoreOf(2) {
		t.Fatalf("post-restore divergence: %v/%.4f vs %v/%.4f",
			r.StateOf(2), r.ScoreOf(2), fresh.StateOf(2), fresh.ScoreOf(2))
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	r := NewReputation(0)
	if err := r.Restore([]byte("not gob")); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		Healthy: "healthy", Suspect: "suspect", Quarantined: "quarantined",
		Health(42): "health(42)",
	} {
		if h.String() != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), h.String(), want)
		}
	}
}
