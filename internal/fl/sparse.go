package fl

import (
	"errors"
	"fmt"
)

// Sparse-update validation and densification. The binary wire codec can
// deliver updates in compressed shapes (top-k sparse and/or delta-coded
// against the broadcast global); everything downstream of the transport —
// Aggregate, the robust folds, observers — works on dense raw parameter
// vectors only. These helpers are the sole bridge between the two worlds,
// and they fail loudly: a malformed sparse shape is a typed error, never
// a silent misfold.

// Sentinel errors classifying malformed sparse updates. Wrapped errors
// carry the client and coordinate context; match with errors.Is.
var (
	// ErrSparseIndexRange means an index falls outside [0, DenseLen).
	ErrSparseIndexRange = errors.New("fl: sparse index out of range")
	// ErrSparseDuplicateIndex means the same coordinate appears twice.
	ErrSparseDuplicateIndex = errors.New("fl: duplicate sparse index")
	// ErrSparseUnsorted means the index list is not strictly ascending.
	ErrSparseUnsorted = errors.New("fl: sparse indices not ascending")
	// ErrSparseShape means the index and value lists disagree, or the
	// declared dense length does not match the model.
	ErrSparseShape = errors.New("fl: sparse shape mismatch")
)

// ValidateSparse checks a sparse/delta update's structure against the
// model's dense length: index and value counts must agree, DenseLen must
// equal wantLen, indices must be strictly ascending within [0, wantLen)
// (which rules out duplicates), and every value must be finite. Dense
// delta updates (IsDelta with nil Indices) are checked for length and
// finiteness only.
func ValidateSparse(u Update, wantLen int) error {
	if u.DenseLen != wantLen {
		return fmt.Errorf("%w: client %d declares dense length %d, want %d",
			ErrSparseShape, u.ClientID, u.DenseLen, wantLen)
	}
	if u.Indices != nil {
		if len(u.Indices) != len(u.Params) {
			return fmt.Errorf("%w: client %d has %d indices for %d values",
				ErrSparseShape, u.ClientID, len(u.Indices), len(u.Params))
		}
		if len(u.Indices) > wantLen {
			return fmt.Errorf("%w: client %d has %d indices for a %d-long vector",
				ErrSparseShape, u.ClientID, len(u.Indices), wantLen)
		}
		prev := -1
		for j, i := range u.Indices {
			if i < 0 || i >= wantLen {
				return fmt.Errorf("%w: client %d index %d at position %d (dense length %d)",
					ErrSparseIndexRange, u.ClientID, i, j, wantLen)
			}
			if i == prev {
				return fmt.Errorf("%w: client %d index %d at position %d",
					ErrSparseDuplicateIndex, u.ClientID, i, j)
			}
			if i < prev {
				return fmt.Errorf("%w: client %d index %d at position %d after %d",
					ErrSparseUnsorted, u.ClientID, i, j, prev)
			}
			prev = i
		}
	} else if len(u.Params) != wantLen {
		return fmt.Errorf("%w: client %d dense delta has %d params, want %d",
			ErrSparseShape, u.ClientID, len(u.Params), wantLen)
	}
	if j := firstNonFinite(u.Params); j >= 0 {
		return fmt.Errorf("fl: client %d sparse update has %s at position %d", u.ClientID, nanOrInf(u.Params[j]), j)
	}
	return nil
}

// Densify expands a compressed update into the canonical dense raw shape
// against the round's broadcast global parameters: sparse coordinates are
// scattered into a zero delta, and delta values are added to the global.
// The input is validated first; a dense raw update passes through
// untouched. The returned update never aliases global.
func Densify(u Update, global []float64) (Update, error) {
	return DensifyInto(nil, u, global)
}

// DensifyInto is Densify writing the dense vector into dst, the caller's
// reusable len(global)-long storage (nil allocates it; its contents are
// irrelevant): the same zero-scatter-add sequence, 0 + (−0) included.
func DensifyInto(dst []float64, u Update, global []float64) (Update, error) {
	if !u.Sparse() {
		return u, nil
	}
	if err := ValidateSparse(u, len(global)); err != nil {
		return Update{}, err
	}
	if dst == nil {
		dst = make([]float64, len(global))
	} else if len(dst) != len(global) {
		return Update{}, fmt.Errorf("%w: densify into %d params, want %d", ErrSparseShape, len(dst), len(global))
	}
	if u.Indices != nil {
		clear(dst)
		for j, i := range u.Indices {
			dst[i] = u.Params[j]
		}
	} else {
		copy(dst, u.Params)
	}
	if u.IsDelta {
		for i, g := range global {
			dst[i] += g
		}
	}
	out := u
	out.Params = dst
	out.Indices = nil
	out.DenseLen = 0
	out.IsDelta = false
	return out, nil
}
