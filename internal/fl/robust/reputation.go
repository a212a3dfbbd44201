package robust

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
)

// Health is a client's position in the quarantine state machine.
type Health int

const (
	// Healthy clients participate normally.
	Healthy Health = iota
	// Suspect clients participate but are being watched: their EWMA
	// anomaly score has crossed suspectScore.
	Suspect
	// Quarantined clients are excluded from rounds entirely: they are not
	// trained (in-process) or exchanged with (TCP), and their updates
	// never reach the aggregate. Quarantine is permanent, the
	// conservative choice for unattended deployments.
	Quarantined
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

const (
	// repAlpha is the EWMA smoothing factor: score ← (1−α)·score +
	// α·sample. At 0.4 a persistent attacker crosses suspectScore in two
	// rounds; one noisy round decays away in three.
	repAlpha = 0.4
	// suspectScore is the EWMA level at or above which a healthy client
	// turns suspect (and a suspect stays suspect).
	suspectScore = 0.5
	// releaseScore is the EWMA level below which a suspect returns to
	// healthy.
	releaseScore = 0.25
	// deviationSpan scales the deviation signal: a client whose distance
	// from the robust aggregate is (1+deviationSpan)× the round's median
	// distance scores a full 1.0 anomaly sample; at the median or below
	// it scores 0. At 3, 4× the median distance saturates.
	deviationSpan = 3
)

// ClientRep is one client's durable reputation record. Fields are
// exported so the whole tracker gob-encodes into the PR 4 checkpoint
// container — a coordinator restart must not amnesty an attacker.
type ClientRep struct {
	// Score is the EWMA anomaly score in [0, 1].
	Score float64
	// State is the client's quarantine state.
	State Health
	// Streak counts consecutive rounds in the state-specific sense:
	// suspect rounds (Suspect) or rounds served (Quarantined).
	Streak int
	// Violations counts hard violations (validation/norm-bound
	// rejections) over the client's lifetime, for ops visibility.
	Violations int
}

// Reputation scores per-client anomaly evidence and drives the
// healthy → suspect → quarantined state machine. It is not internally
// synchronized: the engine and the coordinator both feed it from their
// serial per-round sections.
type Reputation struct {
	// quarantineAfter is how many consecutive suspect rounds trigger
	// quarantine.
	quarantineAfter int
	clients         map[int]*ClientRep
	// pending holds this round's worst anomaly sample per client,
	// folded into the EWMA by EndRound.
	pending map[int]float64
}

// NewReputation builds a tracker that quarantines a client after
// quarantineAfter consecutive suspect rounds; quarantineAfter <= 0
// selects 2.
func NewReputation(quarantineAfter int) *Reputation {
	if quarantineAfter <= 0 {
		quarantineAfter = 2
	}
	return &Reputation{
		quarantineAfter: quarantineAfter,
		clients:         make(map[int]*ClientRep),
		pending:         make(map[int]float64),
	}
}

func (r *Reputation) client(id int) *ClientRep {
	c, ok := r.clients[id]
	if !ok {
		c = &ClientRep{}
		r.clients[id] = c
	}
	return c
}

// Observe records an anomaly sample in [0, 1] for a client this round;
// the round's maximum per client feeds the EWMA at EndRound.
func (r *Reputation) Observe(id int, sample float64) {
	if math.IsNaN(sample) {
		sample = 1
	}
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	if cur, ok := r.pending[id]; !ok || sample > cur {
		r.pending[id] = sample
	}
}

// ObserveViolation records a hard violation (validation rejection, norm
// bound hit, quorum-threatening behavior): a full-scale anomaly sample
// plus the lifetime violation counter.
func (r *Reputation) ObserveViolation(id int) {
	r.client(id).Violations++
	r.Observe(id, 1)
}

// ObserveDeviations converts the participants' distances from the robust
// aggregate into anomaly samples: each distance is compared against the
// round's median distance (the scale honest clients set), and the excess
// is normalized by deviationSpan. ids[i] owns dists[i].
func (r *Reputation) ObserveDeviations(ids []int, dists []float64) {
	if len(ids) != len(dists) || len(ids) == 0 {
		return
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	if med <= 0 || math.IsInf(med, 0) || math.IsNaN(med) {
		// Degenerate round (identical or poisoned-through updates):
		// distances carry no honest scale; only flag the non-finite ones.
		for i, id := range ids {
			if math.IsInf(dists[i], 0) || math.IsNaN(dists[i]) {
				r.Observe(id, 1)
			} else {
				r.Observe(id, 0)
			}
		}
		return
	}
	for i, id := range ids {
		d := dists[i]
		if math.IsInf(d, 0) || math.IsNaN(d) {
			r.Observe(id, 1)
			continue
		}
		r.Observe(id, (d/med-1)/deviationSpan)
	}
}

// EndRound folds this round's samples into the EWMA for every listed
// participant (participants with no recorded sample decay toward 0) and
// advances the state machine. Quarantined clients count rounds served
// whether or not they are listed. It returns the ids whose Health
// changed this round, in ascending order (for logging/metrics).
func (r *Reputation) EndRound(participants []int) []int {
	seen := make(map[int]bool, len(participants))
	for _, id := range participants {
		seen[id] = true
		c := r.client(id)
		c.Score = (1-repAlpha)*c.Score + repAlpha*r.pending[id]
	}
	var changed []int
	ids := make([]int, 0, len(r.clients))
	for id := range r.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := r.clients[id]
		before := c.State
		switch c.State {
		case Healthy:
			if !seen[id] {
				break
			}
			if c.Score >= suspectScore {
				c.State = Suspect
				c.Streak = 1
				if c.Streak >= r.quarantineAfter {
					c.State = Quarantined
					c.Streak = 0
				}
			}
		case Suspect:
			if !seen[id] {
				break
			}
			if c.Score >= suspectScore {
				c.Streak++
				if c.Streak >= r.quarantineAfter {
					c.State = Quarantined
					c.Streak = 0
				}
			} else if c.Score < releaseScore {
				c.State = Healthy
				c.Streak = 0
			}
		case Quarantined:
			c.Streak++ // rounds served, participant or not
		}
		if c.State != before {
			changed = append(changed, id)
		}
	}
	r.pending = make(map[int]float64)
	return changed
}

// Blocked reports whether a client is currently quarantined — the one
// state the engine and coordinator enforce by exclusion.
func (r *Reputation) Blocked(id int) bool {
	c, ok := r.clients[id]
	return ok && c.State == Quarantined
}

// StateOf returns a client's Health (Healthy for unknown clients).
func (r *Reputation) StateOf(id int) Health {
	if c, ok := r.clients[id]; ok {
		return c.State
	}
	return Healthy
}

// ScoreOf returns a client's EWMA anomaly score (0 for unknown clients).
func (r *Reputation) ScoreOf(id int) float64 {
	if c, ok := r.clients[id]; ok {
		return c.Score
	}
	return 0
}

// QuarantinedCount returns how many clients are currently quarantined.
func (r *Reputation) QuarantinedCount() int {
	n := 0
	for _, c := range r.clients {
		if c.State == Quarantined {
			n++
		}
	}
	return n
}

// Records returns a copy of every tracked client's record, keyed by id.
func (r *Reputation) Records() map[int]ClientRep {
	out := make(map[int]ClientRep, len(r.clients))
	for id, c := range r.clients {
		out[id] = *c
	}
	return out
}

// reputationState is the gob layout of a snapshot: records only — the
// quarantineAfter setting is reconstruction-time wiring, like the rest of
// the engine's configuration, so operators can retune it across a restart
// without amnestying anyone.
type reputationState struct {
	Clients map[int]ClientRep
}

// Snapshot serializes the tracker's durable state for the checkpoint
// container. Pending (intra-round) samples are not captured: snapshots
// happen at round boundaries, where pending is empty.
func (r *Reputation) Snapshot() ([]byte, error) {
	st := reputationState{Clients: make(map[int]ClientRep, len(r.clients))}
	for id, c := range r.clients {
		st.Clients[id] = *c
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("robust: encoding reputation state: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the tracker's records with a snapshot's. The active
// quarantineAfter is kept (see Snapshot).
func (r *Reputation) Restore(blob []byte) error {
	var st reputationState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("robust: decoding reputation state: %w", err)
	}
	r.clients = make(map[int]*ClientRep, len(st.Clients))
	for id, c := range st.Clients {
		cc := c
		r.clients[id] = &cc
	}
	r.pending = make(map[int]float64)
	return nil
}
