package flcli

import (
	"flag"
	"fmt"
)

// SampleFlags bundles the per-round cohort-sampling flags flserver and
// ciptrain share. Register on the default flag set before flag.Parse,
// then Validate after.
type SampleFlags struct {
	Frac *float64
	Seed *int64
}

// RegisterSampleFlags installs -sample-frac and -sample-seed on the
// default flag set.
func RegisterSampleFlags() *SampleFlags {
	return &SampleFlags{
		Frac: flag.Float64("sample-frac", 0,
			"per-round client sampling fraction in (0, 1): each round trains a cohort of "+
				"~frac×roster, weighted by client sample counts and never below the quorum; "+
				"a flat flserver, and every leaf under a sampling root, needs -quorum > 0 to sample; "+
				"ciptrain samples with a quorum of 1 "+
				"unless -quorum says otherwise; 0 or 1 trains everyone"),
		Seed: flag.Int64("sample-seed", 1,
			"cohort sampler seed (with -sample-frac); flserver and ciptrain draw each round's "+
				"cohort from (seed, round) alone, so a resumed federation replays the same schedule"),
	}
}

// Validate rejects fractions outside [0, 1].
func (s *SampleFlags) Validate() error {
	if *s.Frac < 0 || *s.Frac > 1 {
		return fmt.Errorf("-sample-frac %v out of range [0, 1]", *s.Frac)
	}
	return nil
}
