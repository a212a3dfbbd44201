package flcli

import (
	"flag"
	"fmt"
	"strings"
)

// TreeFlags bundles the aggregation-tree topology flags flserver exposes
// and the subset (quorum/coverage policy) that in-process harnesses like
// flload share. Register on the default flag set before flag.Parse, then
// Validate with the node's role after.
type TreeFlags struct {
	Parent        *string
	AltParents    *string
	SubtreeQuorum *int
	CoverageFloor *float64
}

// RegisterTreeFlags installs the full topology flag set: -parent,
// -alt-parents, -subtree-quorum, and -coverage-floor.
func RegisterTreeFlags() *TreeFlags {
	t := registerTreePolicyFlags()
	t.Parent = flag.String("parent", "",
		"upstream aggregator address for tree nodes (-role leaf or interior)")
	t.AltParents = flag.String("alt-parents", "",
		"comma-separated fallback parent addresses; a tree node that exhausts its "+
			"retry budget against one parent fails over to the next and rejoins "+
			"mid-federation with its session token")
	return t
}

// RegisterTreePolicyFlags installs only -subtree-quorum and
// -coverage-floor, for binaries that build the tree in-process and have
// no parent address to dial (flload). Parent and AltParents parse as
// empty.
func RegisterTreePolicyFlags() *TreeFlags {
	t := registerTreePolicyFlags()
	empty, alt := "", ""
	t.Parent, t.AltParents = &empty, &alt
	return t
}

func registerTreePolicyFlags() *TreeFlags {
	return &TreeFlags{
		SubtreeQuorum: flag.Int("subtree-quorum", 0,
			"minimum valid children per round at a tree node; a node that falls below it "+
				"forwards a degraded partial (annotated with the shortfall) instead of "+
				"stalling the round; 0 keeps the node fail-stop"),
		CoverageFloor: flag.Float64("coverage-floor", 0,
			"minimum fraction of planned cohort weight that must reach an aggregating "+
				"node for the round to count; below it the round aborts cleanly; 0 "+
				"accepts any coverage"),
	}
}

// Validate checks ranges and that the parent flags only appear on roles
// that dial upward (leaf or interior).
func (t *TreeFlags) Validate(role string) error {
	if *t.SubtreeQuorum < 0 {
		return fmt.Errorf("-subtree-quorum %d is negative", *t.SubtreeQuorum)
	}
	if *t.CoverageFloor < 0 || *t.CoverageFloor > 1 {
		return fmt.Errorf("-coverage-floor %v out of range [0, 1]", *t.CoverageFloor)
	}
	child := role == "leaf" || role == "interior"
	if *t.Parent != "" && !child {
		return fmt.Errorf("-parent only applies to -role leaf or interior (got %q)", role)
	}
	if *t.AltParents != "" && !child {
		return fmt.Errorf("-alt-parents only applies to -role leaf or interior (got %q)", role)
	}
	return nil
}

// AltList splits -alt-parents into addresses, dropping empty entries.
func (t *TreeFlags) AltList() []string {
	var out []string
	for _, a := range strings.Split(*t.AltParents, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
