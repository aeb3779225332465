package core

// The certified score-prefix PRFe top-k selector. Scanning the prepared
// view in score order, the log-domain running product after m positions
// bounds every unseen tuple's value from above: for real α ∈ (0, 1) each
// remaining factor 1 − p + p·α lies in [α, 1] and each log p ≤ 0, so
// position j ≥ m has log|Υ_α| ≤ logProd_m + log α — and because IEEE
// addition is monotone, the bound holds for the rounded values the kernel
// actually produces, not just the exact ones. Once the k best values seen
// strictly beat that bound, no unseen tuple can enter the answer, not even
// on a value tie (a tie would need an ID comparison the prefix cannot
// see, hence strictness). This is the scan-with-stopping-condition
// evaluation of Zhang/Chomicki and Chang/Yu/Qin, specialized to PRFe.
//
// The selector keeps the k best positions in a heap under pdb.ByValue —
// the RankByValue order — so its answer is RankPRFe(α).TopK(k)
// bit-for-bit: values come from PRFeLogSpan (pinned to PRFeLogInto) and
// the order is the one RankByValue sorts by. For α outside (0, 1) the
// bound is unsound or useless, so the early stop is off; the full scan
// plus heap select is still exact and O(n log k).

import (
	"context"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/par"
	"repro/internal/pdb"
)

// selectChunk is the number of positions the selector evaluates between
// certification checks: the stop lands at most this far past the first
// position where the bound would have certified.
const selectChunk = 64

// PRFeTopK is a resumable certified PRFe top-k selector over positions fed
// in score order. Feed it consecutive spans of the prepared order (ids and
// probabilities); once Feed reports true the answer is certified and
// Ranking returns it. If the whole relation was fed without certification,
// Ranking is still exact. The zero value is not usable; see NewPRFeTopK.
type PRFeTopK struct {
	alpha    complex128
	logAlpha float64
	k        int
	early    bool // α ∈ (0, 1): the prefix bound is sound and useful
	st       PRFeLogState
	seen     int
	done     bool
	// heap holds the best min(k, seen) entries, worst at heap[0].
	heap []topkEntry
	buf  [selectChunk]float64
}

// maxHeapPrealloc caps the heap's up-front allocation: k is caller input
// and may far exceed the relation, so larger heaps grow as entries arrive.
const maxHeapPrealloc = 1024

type topkEntry struct {
	val float64
	id  pdb.TupleID
}

// NewPRFeTopK starts a selector for the PRFe(α) top-k. k = 0 is certified
// before any input.
func NewPRFeTopK(alpha float64, k int) *PRFeTopK {
	a := complex(alpha, 0)
	return &PRFeTopK{
		alpha:    a,
		logAlpha: math.Log(cmplx.Abs(a)), // the PRFeLogInto expression
		k:        k,
		early:    alpha > 0 && alpha < 1,
		done:     k == 0,
		heap:     make([]topkEntry, 0, min(k, maxHeapPrealloc)),
	}
}

// Feed consumes the next span of score-ordered positions and reports
// whether the answer is certified. It stops reading as soon as it is, so a
// span may be consumed only in part; later calls are no-ops.
func (s *PRFeTopK) Feed(ids []pdb.TupleID, probs []float64) bool {
	for len(probs) > 0 && !s.done {
		m := min(len(probs), selectChunk)
		vals := s.buf[:m]
		PRFeLogSpan(s.alpha, probs[:m], &s.st, vals)
		for i, v := range vals {
			s.offer(v, ids[i])
		}
		ids, probs = ids[m:], probs[m:]
		s.seen += m
		s.done = s.certified()
	}
	return s.done
}

// Seen returns the number of positions consumed so far.
func (s *PRFeTopK) Seen() int { return s.seen }

// certified reports whether the kept entries strictly beat every unseen
// value.
func (s *PRFeTopK) certified() bool {
	if !s.early || len(s.heap) < s.k {
		return false
	}
	bound := math.Inf(-1)
	if !s.st.Zeroed {
		bound = s.st.LogProd + s.logAlpha
	}
	return s.heap[0].val > bound
}

// offer admits (v, id) if it ranks before the worst kept entry.
func (s *PRFeTopK) offer(v float64, id pdb.TupleID) {
	h := s.heap
	if len(h) < s.k {
		h = append(h, topkEntry{v, id})
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		s.heap = h
		return
	}
	if pdb.ByValue(v, id, h[0].val, h[0].id) >= 0 {
		return
	}
	h[0] = topkEntry{v, id}
	for i := 0; ; {
		w := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// worse reports whether a ranks after b.
func worse(a, b topkEntry) bool { return pdb.ByValue(a.val, a.id, b.val, b.id) > 0 }

// Ranking returns the kept entries best first: the certified top-k, or,
// after the whole relation was fed, the exact top-min(k, n).
func (s *PRFeTopK) Ranking() pdb.Ranking {
	h := slices.Clone(s.heap)
	slices.SortFunc(h, func(a, b topkEntry) int { return pdb.ByValue(a.val, a.id, b.val, b.id) })
	out := make(pdb.Ranking, len(h))
	for i, e := range h {
		out[i] = e.id
	}
	return out
}

// topKPRFeSelect answers one α with the selector, reading at most limit
// positions. ok is false when the answer was not certified within the
// limit (a limit of n always answers: the full scan is exact).
func (v *Prepared) topKPRFeSelect(alpha float64, k, limit int) (pdb.Ranking, bool) {
	s := NewPRFeTopK(alpha, k)
	if s.Feed(v.ids[:limit], v.probs[:limit]) || limit == v.Len() {
		return s.Ranking(), true
	}
	return nil, false
}

// topKPRFeCertified answers a monotone grid from certified score prefixes
// of at most n/2 positions each — the rule store.LazyPrepared applies too —
// and reports !ok as soon as some grid point needs more, leaving the grid
// to the kinetic sweep. Larger α needs deeper prefixes (the bound decays
// more slowly), so the grid is tried from its top end: a grid that will
// fail usually fails on its first point.
func (v *Prepared) topKPRFeCertified(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, bool, error) {
	out := make([]pdb.Ranking, len(alphas))
	for a := len(alphas) - 1; a >= 0; a-- {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, false, err
		}
		rk, ok := v.topKPRFeSelect(alphas[a], k, v.Len()/2)
		if !ok {
			return nil, false, nil
		}
		out[a] = rk
	}
	return out, true, nil
}

// topKPRFeParallelCtx is the non-grid top-k batch path: one selector per α,
// fanned out across workers. Each answer stops at its certified prefix
// when α ∈ (0, 1) and is an exact O(n log k) scan otherwise.
func (v *Prepared) topKPRFeParallelCtx(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	out := make([]pdb.Ranking, len(alphas))
	err := par.ForWorkersCtx(ctx, par.Workers(len(alphas)), len(alphas), func(_, a int) {
		out[a], _ = v.topKPRFeSelect(alphas[a], k, v.Len())
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
