package fl

// HistoryRecorder is a RoundObserver that keeps the per-round state a
// malicious server would see. The internal passive attack reads local
// models from here; Fig. 7's EMD heterogeneity analysis reads the
// per-client training-loss series.
type HistoryRecorder struct {
	// KeepParams controls whether local parameter vectors are retained
	// (they dominate memory). Loss histories are always kept.
	KeepParams bool
	// OnlyRounds, when non-empty, restricts parameter retention to these
	// rounds — the paper's passive attack observes "several latest
	// iterations" (Table I's attacking iterations).
	OnlyRounds map[int]bool

	Rounds []RoundRecord

	// pending holds failures reported for the round currently being
	// observed; ObserveRound folds them into the next RoundRecord.
	pending []ClientFailure
}

// RoundRecord is the retained view of one communication round.
type RoundRecord struct {
	Round       int
	Global      []float64   // pre-round global parameters (nil unless kept)
	LocalParams [][]float64 // per-client post-training parameters (nil unless kept)
	TrainLosses []float64   // per-client mean local training loss
	// Dropped lists the clients excluded from this round's aggregate
	// (fault-tolerant runs only; nil in fail-stop runs).
	Dropped []ClientFailure
}

// ObserveFailures implements FailureObserver: the per-round dropped-client
// set is retained alongside the surviving updates, so attack analyses know
// exactly which clients each aggregate was built from.
func (h *HistoryRecorder) ObserveFailures(round int, failures []ClientFailure) {
	h.pending = append([]ClientFailure(nil), failures...)
}

// ObserveRound implements RoundObserver. A kept round copies the global and
// every update: both are live engine vectors, reused after the call.
func (h *HistoryRecorder) ObserveRound(round int, global []float64, updates []Update) {
	rec := RoundRecord{Round: round, TrainLosses: make([]float64, len(updates))}
	if len(h.pending) > 0 {
		rec.Dropped = h.pending
		h.pending = nil
	}
	keep := h.KeepParams && (len(h.OnlyRounds) == 0 || h.OnlyRounds[round])
	if keep {
		rec.Global = append([]float64(nil), global...)
		rec.LocalParams = make([][]float64, len(updates))
	}
	for i, u := range updates {
		rec.TrainLosses[i] = u.TrainLoss
		if keep {
			p := make([]float64, len(u.Params))
			copy(p, u.Params)
			rec.LocalParams[i] = p
		}
	}
	h.Rounds = append(h.Rounds, rec)
}

// ClientLossSeries returns client i's training-loss trajectory across all
// observed rounds.
func (h *HistoryRecorder) ClientLossSeries(i int) []float64 {
	out := make([]float64, 0, len(h.Rounds))
	for _, r := range h.Rounds {
		if i < len(r.TrainLosses) {
			out = append(out, r.TrainLosses[i])
		}
	}
	return out
}

// KeptRounds returns the records that retained parameter vectors.
func (h *HistoryRecorder) KeptRounds() []RoundRecord {
	var out []RoundRecord
	for _, r := range h.Rounds {
		if r.LocalParams != nil {
			out = append(out, r)
		}
	}
	return out
}
