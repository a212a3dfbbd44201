package nn

import (
	"sync/atomic"

	"github.com/cip-fl/cip/internal/tensor"
)

// Weight packing. Dense reads its weight matrix as the B operand of two
// GEMMs, the forward x·Wᵀ and the input gradient g·W, and the blocked
// driver packs B into panels on every call. (Conv2D's weight is the A
// operand of its per-image products, read in place, so it is not packed.) A training step
// reads one set of weights many times: CIP's Step II runs both Eq. 2
// channels through both Eq. 4 terms before its optimizer step, and Step I
// holds the weights fixed for its whole pass. Between PackWeights and
// UnpackWeights each weight is packed the first time a product needs it,
// and every later product reads those panels. Packed products are
// bit-identical to unpacked ones (tensor.PackedB).
//
// The caller promises the weights do not change in between: an optimizer
// step, SetFlatParams or any other write belongs after UnpackWeights. The
// panels' storage stays with the Param, so the next packing allocates
// nothing.

// weightPacks is one Param's packed GEMM operands.
type weightPacks struct {
	held bool           // between PackWeights and UnpackWeights
	fwd  tensor.PackedB // Value as the B of x·Valueᵀ
	bwd  tensor.PackedB // Value as the B of g·Value
}

// PackWeights holds the weights of ps fixed until UnpackWeights, so each
// is packed at most once in between.
func PackWeights(ps []*Param) {
	if packingOff.Load() {
		return
	}
	for _, p := range ps {
		if p.packs == nil {
			p.packs = new(weightPacks)
		}
		p.packs.held = true
	}
}

// UnpackWeights ends PackWeights: later products pack per call again.
func UnpackWeights(ps []*Param) {
	for _, p := range ps {
		if w := p.packs; w != nil {
			w.held = false
			w.fwd.Drop()
			w.bwd.Drop()
		}
	}
}

// packed returns p's value packed as a B operand (transposed for x·Valueᵀ),
// packing it now if needed, or nil when p's weights are not held.
func (p *Param) packed(transB bool) *tensor.PackedB {
	w := p.packs
	if w == nil || !w.held {
		return nil
	}
	pk := &w.bwd
	if transB {
		pk = &w.fwd
	}
	if pk.Stale() {
		pk.Pack(p.Value, transB)
	}
	return pk
}

// affineInto sets dst = x·Valueᵀ + bias: the forward product of Dense.
func (p *Param) affineInto(dst, x *tensor.Tensor, bias []float64) {
	if pk := p.packed(true); pk != nil {
		tensor.MatMulPackedInto(dst, x, pk, bias)
		return
	}
	tensor.MatMulTransBBiasInto(dst, x, p.Value, bias)
}

// backInto sets dst = g·Value: the input gradient of Dense.
func (p *Param) backInto(dst, g *tensor.Tensor) {
	if pk := p.packed(false); pk != nil {
		tensor.MatMulPackedInto(dst, g, pk, nil)
		return
	}
	tensor.MatMulInto(dst, g, p.Value)
}

// packingOff turns PackWeights into a no-op (SetPackingTestMode).
var packingOff atomic.Bool

// SetPackingTestMode disables weight packing, so every product packs its B
// per call as before packing existed, until restore is called. Tests use
// it to pin packed training to unpacked training bit for bit.
func SetPackingTestMode(disabled bool) (restore func()) {
	prev := packingOff.Swap(disabled)
	return func() { packingOff.Store(prev) }
}
