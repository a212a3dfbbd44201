package flcli

import (
	"flag"
	"fmt"

	"github.com/cip-fl/cip/internal/fl/robust"
)

// RobustFlags bundles the Byzantine-resilience flags cmd/flserver and
// cmd/ciptrain share: the robust aggregation rule and the reputation
// tracker's quarantine threshold. Register on the default flag set before
// flag.Parse, then Build after.
type RobustFlags struct {
	Agg             *string
	TrimFrac        *float64
	QuarantineAfter *int
}

// RegisterRobustFlags installs -robust-agg, -trim-frac, and
// -quarantine-after on the default flag set.
func RegisterRobustFlags() *RobustFlags {
	return &RobustFlags{
		Agg: flag.String("robust-agg", "",
			"robust aggregation rule: mean, median, trimmed, clipped; empty keeps sample-weighted FedAvg"),
		TrimFrac: flag.Float64("trim-frac", 0.1,
			"per-tail trim fraction for -robust-agg trimmed, in (0, 0.5)"),
		QuarantineAfter: flag.Int("quarantine-after", 0,
			"quarantine a client after this many reputation strikes; 0 disables the reputation tracker"),
	}
}

// Build turns the parsed flags into an aggregator and reputation tracker.
// maxNorm feeds the clipped rule's bound (flserver reuses -max-update-norm
// for it; callers without that flag pass 0, making clipped unavailable).
// Both returns are nil when the corresponding flag is off.
func (rf *RobustFlags) Build(maxNorm float64) (robust.Aggregator, *robust.Reputation, error) {
	agg, err := robust.New(*rf.Agg, *rf.TrimFrac, maxNorm)
	if err != nil {
		if *rf.Agg == "clipped" && maxNorm <= 0 {
			return nil, nil, fmt.Errorf("-robust-agg clipped needs -max-update-norm > 0: %w", err)
		}
		return nil, nil, err
	}
	var rep *robust.Reputation
	if *rf.QuarantineAfter > 0 {
		rep = robust.NewReputation(*rf.QuarantineAfter)
	}
	return agg, rep, nil
}
