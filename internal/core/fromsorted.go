package core

// The storage layer's entry points into the prepared-view core: FromSorted
// admits arrays that are already in the canonical sorted order (the on-disk
// segment layout of internal/store) without paying the O(n log n) sort a
// Prepare would, and PRFeLogSpan is the resumable span form of the PRFeLog
// kernel that lazy partial materialization uses to extend per-tuple values
// as more of a score prefix is read from disk.

import (
	"errors"
	"math"
	"math/cmplx"

	"repro/internal/pdb"
)

// FromSorted validation errors.
var (
	// ErrNotSorted reports input arrays that violate the canonical
	// (score descending, ID ascending) prepared order.
	ErrNotSorted = errors.New("core: arrays are not in (score desc, ID asc) order")
	// ErrBadArrays reports mismatched lengths, an ID set that is not a
	// permutation of 0..n-1, a probability outside [0, 1], or a non-finite
	// score.
	ErrBadArrays = errors.New("core: invalid prepared arrays")
)

// FromSorted builds a Prepared view directly from arrays already in the
// canonical order Prepare would establish: scores non-increasing, ties
// broken by ascending tuple ID, with ids a permutation of 0..n-1. The
// arrays are validated in O(n) by CheckSorted, then copied — no sort
// happens, which is what makes opening a score-ordered on-disk segment a
// sequential scan. The resulting view is bit-for-bit the one Prepare builds
// from the same tuples.
func FromSorted(ids []pdb.TupleID, scores, probs []float64) (*Prepared, error) {
	if err := CheckSorted(ids, scores, probs); err != nil {
		return nil, err
	}
	v := &Prepared{
		ids:    make([]pdb.TupleID, len(ids)),
		scores: make([]float64, len(ids)),
		probs:  make([]float64, len(ids)),
	}
	copy(v.ids, ids)
	copy(v.scores, scores)
	copy(v.probs, probs)
	return v, nil
}

// CheckSorted reports whether the arrays are a valid prepared view exactly
// as FromSorted would admit them — ErrBadArrays or ErrNotSorted if not —
// without copying them.
func CheckSorted(ids []pdb.TupleID, scores, probs []float64) error {
	n := len(ids)
	if len(scores) != n || len(probs) != n {
		return ErrBadArrays
	}
	seen := make([]bool, n)
	for i, id := range ids {
		if id < 0 || int(id) >= n || seen[id] {
			return ErrBadArrays
		}
		seen[id] = true
		if math.IsNaN(probs[i]) || probs[i] < 0 || probs[i] > 1 {
			return ErrBadArrays
		}
		if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
			return ErrBadArrays
		}
		if i > 0 && canonicalCmp(scores[i-1], ids[i-1], scores[i], id) >= 0 {
			return ErrNotSorted
		}
	}
	return nil
}

// PRFeLogState is the running state of a log-domain PRFe scan, carried
// across PRFeLogSpan calls so a scan can resume where the previous span
// ended. The zero value is the state before position 0.
type PRFeLogState struct {
	// LogProd is Σ log|1 − p_l + p_l·α| over the positions consumed so far.
	LogProd float64
	// Zeroed records that some consumed factor was exactly 0, annihilating
	// every later product.
	Zeroed bool
}

// PRFeLogSpan continues a log-domain PRFe evaluation across the next span
// of sorted-order probabilities: out[i] receives log|Υ_α| for span position
// i (out is positional — the caller owns the mapping back to tuple IDs),
// and st advances past the span. Feeding the full probability array through
// one span (or any partition of it into consecutive spans) produces exactly
// the values PRFeLogInto computes — the per-element arithmetic below must
// stay textually identical to PRFeLogInto's, and the equivalence is pinned
// bit-for-bit by TestPRFeLogSpanMatchesPRFeLog.
//
// The span form also carries the partial-materialization bound: for real
// α ∈ (0, 1] every remaining value is ≤ st.LogProd + log α (−Inf once
// st.Zeroed), because each remaining factor and probability only subtract
// from the running sum — see store.LazyPrepared.
func PRFeLogSpan(alpha complex128, probs []float64, st *PRFeLogState, out []float64) {
	logAlpha := math.Log(cmplx.Abs(alpha))
	logProd, zeroed := st.LogProd, st.Zeroed
	for i, pr := range probs {
		switch {
		case zeroed, pr == 0:
			out[i] = math.Inf(-1)
		default:
			out[i] = logProd + math.Log(pr) + logAlpha
		}
		p := complex(pr, 0)
		f := 1 - p + p*alpha
		if f == 0 {
			zeroed = true
		} else if !zeroed {
			logProd += math.Log(cmplx.Abs(f))
		}
	}
	st.LogProd, st.Zeroed = logProd, zeroed
}
