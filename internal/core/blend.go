// Package core implements CIP (Client-level Input Perturbation), the
// paper's defense: a per-client secret perturbation t blended into every
// training and inference input (Eq. 2), a dual-channel model sharing one
// backbone (Fig. 3), perturbation generation by loss minimization (Step I,
// Eq. 3), and model learning that simultaneously fits blended data and
// pushes the loss on unblended originals up (Step II, Eq. 4).
package core

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Blended is the pair of blend channels of Eq. 2 together with the
// clipping masks needed to backpropagate through the clip. It lives where
// the blended batch does (its workspace, if any).
type Blended struct {
	// C1 = clip((1-α)·x + α·t), C2 = clip((1+α)·x − α·t).
	C1, C2 *tensor.Tensor
	// Pass1[i] is true when C1's element i was not clipped (gradient
	// flows); likewise Pass2 for C2.
	Pass1, Pass2 []bool
}

// Blend applies the paper's blending function (Eq. 2) to a batch x of
// shape [N, ...] using the sample-shaped perturbation t, clipping both
// channels into [lo, hi] ("clipped within the range of x").
func Blend(x, t *tensor.Tensor, alpha, lo, hi float64) *Blended {
	n := x.Shape[0]
	ss := x.Size() / n
	if t.Size() != ss {
		panic(fmt.Sprintf("core: perturbation size %d does not match sample size %d", t.Size(), ss))
	}
	c1 := tensor.NewLike(x, x.Shape...)
	c2 := tensor.NewLike(x, x.Shape...)
	p1 := x.Workspace().Bools(x.Size())
	p2 := x.Workspace().Bools(x.Size())
	for b := 0; b < n; b++ {
		off := b * ss
		for j := 0; j < ss; j++ {
			xv := x.Data[off+j]
			tv := t.Data[j]
			v1 := (1-alpha)*xv + alpha*tv
			v2 := (1+alpha)*xv - alpha*tv
			p1[off+j], p2[off+j] = true, true
			if v1 < lo {
				v1, p1[off+j] = lo, false
			} else if v1 > hi {
				v1, p1[off+j] = hi, false
			}
			if v2 < lo {
				v2, p2[off+j] = lo, false
			} else if v2 > hi {
				v2, p2[off+j] = hi, false
			}
			c1.Data[off+j] = v1
			c2.Data[off+j] = v2
		}
	}
	return &Blended{C1: c1, C2: c2, Pass1: p1, Pass2: p2}
}

// Perturbation is a client's secret input perturbation t, together with
// the seed it was initialized from. The seed matters to the adaptive
// Knowledge-1 attack (Table VIII), which assumes the initialization seed
// leaks while the optimized t stays secret.
type Perturbation struct {
	T    *tensor.Tensor
	Seed int64
}

// NewPerturbation initializes t as random input from the given seed,
// uniform over [lo, hi] — "we initialize the perturbation t as some random
// input" (§III-B).
func NewPerturbation(seed int64, shape []int, lo, hi float64) *Perturbation {
	t := tensor.New(shape...)
	t.RandUniform(rand.New(rand.NewSource(seed)), lo, hi)
	return &Perturbation{T: t, Seed: seed}
}

// BlendSeed deterministically mixes a base seed with a client index so
// every FL client gets a distinct, reproducible perturbation.
func BlendSeed(base int64, clientID int) int64 {
	return base*1000003 + int64(clientID)*7919
}
