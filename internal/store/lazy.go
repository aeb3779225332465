package store

// LazyPrepared: the cold-open path for independent-tuple segments. It
// implements engine.Ranker over an open Handle without touching the file
// until a query arrives. Top-k PRFe queries materialize only a score
// prefix: because the segment is stored in prepared (score desc, ID asc)
// order, the PRFe log kernel's running product after a prefix bounds every
// unseen tuple's value from above — for real α ∈ (0, 1] each remaining
// factor |1 − p(1−α)| ≥ α and each log p ≤ 0 only push values further
// down — so once k materialized candidates strictly beat the bound, the
// top-k is certified without reading the rest of the file. Everything
// else (full rankings, per-tuple metrics, complex α) forces one full
// materialization into a core.Prepared and delegates from then on.
//
// The partial path is core.PRFeTopK — the certified selector behind
// core.Prepared's top-k — fed span by span from disk, so it reproduces
// core's QueryTopKPRFeBatch bit-for-bit: the same kernel arithmetic, the
// same pdb.ByValue order, and the same strict win over the bound, so an
// unmaterialized tuple can never displace a chosen one even on a value
// tie.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pdb"
)

// minPartialPrefix is the smallest prefix worth a partial read; below this
// the whole-file scan is effectively free.
const minPartialPrefix = 256

// LazyPrepared is an engine.Ranker that materializes an independent-tuple
// segment from disk on demand. It is safe for concurrent use.
type LazyPrepared struct {
	h *Handle
	n int
	// minPrefix is the first prefix length a partial read may start from:
	// minPartialPrefix, lowered only by tests that drive the partial path
	// on relations small enough for possible-worlds enumeration.
	minPrefix int

	// full flips once, from nil to the fully materialized view; after that
	// every query delegates lock-free.
	full atomic.Pointer[core.Prepared]

	mu     sync.Mutex // guards the prefix state below and handle I/O
	ids    []pdb.TupleID
	probs  []float64
	closed bool
}

// NewLazy wraps an open independent-tuple segment handle. The LazyPrepared
// owns the handle and closes it once fully materialized.
func NewLazy(h *Handle) *LazyPrepared {
	return &LazyPrepared{h: h, n: h.Len(), minPrefix: minPartialPrefix}
}

// BytesRead reports the segment bytes read so far — the measure behind the
// partial path's o(n) claim.
func (l *LazyPrepared) BytesRead() int64 { return l.h.BytesRead() }

// Len returns the number of ranked tuples (from the header; no I/O).
func (l *LazyPrepared) Len() int { return l.n }

// Materialize loads the full prepared view, reading each section once with
// checksum verification. It is idempotent and closes the underlying file
// handle on success.
func (l *LazyPrepared) Materialize(ctx context.Context) (*core.Prepared, error) {
	if p := l.full.Load(); p != nil {
		return p, nil
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.full.Load(); p != nil {
		return p, nil
	}
	idBuf, err := l.h.readSectionFull(secIDs)
	if err != nil {
		return nil, err
	}
	scoreBuf, err := l.h.readSectionFull(secScores)
	if err != nil {
		return nil, err
	}
	probBuf, err := l.h.readSectionFull(secProbs)
	if err != nil {
		return nil, err
	}
	ids := make([]pdb.TupleID, l.n)
	for i := range ids {
		ids[i] = pdb.TupleID(leU32(idBuf, i))
	}
	p, err := core.FromSorted(ids, decodeFloats(scoreBuf), decodeFloats(probBuf))
	if err != nil {
		return nil, err
	}
	l.full.Store(p)
	l.ids, l.probs = nil, nil
	if !l.closed {
		l.closed = true
		_ = l.h.Close()
	}
	return p, nil
}

func leU32(b []byte, i int) uint32 {
	return uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
}

// QueryTopKPRFeBatch returns the PRFe top-k at every α of a grid. For real
// α ∈ (0, 1] on a still-cold view it answers from a materialized score
// prefix when the bound certifies; otherwise it falls back to a full load.
func (l *LazyPrepared) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if p := l.full.Load(); p != nil {
		return p.QueryTopKPRFeBatch(ctx, alphas, k)
	}
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := pdb.CheckTopK(k); err != nil {
		return nil, err
	}
	if l.partialEligible(alphas, k) {
		out, ok, err := l.partialTopK(ctx, alphas, k)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryTopKPRFeBatch(ctx, alphas, k)
}

// partialEligible gates the prefix path to the queries it can answer: the
// monotone bound needs every α ∈ (0, 1) (α = 1 is sound but pointless —
// every factor is exactly 1, so the bound pins at 0 while all values are
// ≤ 0 — and core.PRFeTopK keeps its early stop off outside the open
// interval), and the prefix must stay well under n for the read to be
// worth anything.
func (l *LazyPrepared) partialEligible(alphas []float64, k int) bool {
	if 2*l.startPrefix(k) > l.n {
		return false
	}
	for _, a := range alphas {
		if !(a > 0 && a < 1) {
			return false
		}
	}
	return true
}

// startPrefix is the first prefix length tried for a top-k query.
func (l *LazyPrepared) startPrefix(k int) int {
	return max(4*k, l.minPrefix)
}

// partialTopK materializes doubling score prefixes and feeds each new span
// to one core.PRFeTopK selector per α — the certified selector behind
// core.Prepared's top-k — until every α's answer is certified or the
// prefix would pass n/2 (then it reports !ok and the caller does a full
// load).
func (l *LazyPrepared) partialTopK(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.full.Load(); p != nil {
		// Materialized while we waited for the lock; the fast path owns it.
		return nil, false, nil
	}
	sels := make([]*core.PRFeTopK, len(alphas))
	for a, alpha := range alphas {
		sels[a] = core.NewPRFeTopK(alpha, k)
	}
	for m := l.startPrefix(k); 2*m <= l.n; m *= 2 {
		if err := l.extendPrefix(m); err != nil {
			return nil, false, err
		}
		done := true
		for _, s := range sels {
			if err := pdb.CtxErr(ctx); err != nil {
				return nil, false, err
			}
			// An uncertified selector has consumed the whole previous prefix.
			if seen := s.Seen(); !s.Feed(l.ids[seen:m], l.probs[seen:m]) {
				done = false
			}
		}
		if done {
			out := make([]pdb.Ranking, len(sels))
			for a, s := range sels {
				out[a] = s.Ranking()
			}
			return out, true, nil
		}
	}
	return nil, false, nil
}

// extendPrefix grows the materialized (ids, probs) prefix to m positions.
func (l *LazyPrepared) extendPrefix(m int) error {
	cur := len(l.ids)
	if m <= cur {
		return nil
	}
	ids, err := l.h.ReadIDs(cur, m)
	if err != nil {
		return err
	}
	probs, err := l.h.ReadProbs(cur, m)
	if err != nil {
		return err
	}
	l.ids = append(l.ids, ids...)
	l.probs = append(l.probs, probs...)
	return nil
}

// The remaining Ranker methods need whole-relation state; each forces one
// full materialization and delegates. Validation runs in the delegate, so
// a malformed query against a cold view pays the load before erroring —
// the price of not duplicating the query-checking layer here.

// QueryPRFe evaluates Υ_α(t) for every tuple.
func (l *LazyPrepared) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPRFe(ctx, alpha)
}

// QueryPRFeBatch evaluates Υ_α(t) for every tuple at every α of a grid.
func (l *LazyPrepared) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPRFeBatch(ctx, alphas)
}

// QueryRankPRFe returns the full PRFe(α) ranking for real α.
func (l *LazyPrepared) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryRankPRFe(ctx, alpha)
}

// QueryRankPRFeBatch returns the full PRFe ranking at every α of a grid.
func (l *LazyPrepared) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryRankPRFeBatch(ctx, alphas)
}

// QueryPRFeCombo evaluates the linear combination Σ_l u_l·Υ_{α_l}(t).
func (l *LazyPrepared) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPRFeCombo(ctx, us, alphas)
}

// QueryPRF evaluates Υω(t) for an arbitrary weight function.
func (l *LazyPrepared) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPRF(ctx, omega)
}

// QueryPRFOmega evaluates the PRFω(h) family.
func (l *LazyPrepared) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPRFOmega(ctx, w)
}

// QueryPTh evaluates Pr(r(t) ≤ h).
func (l *LazyPrepared) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryPTh(ctx, h)
}

// QueryERank returns E[r(t)] per tuple.
func (l *LazyPrepared) QueryERank(ctx context.Context) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryERank(ctx)
}

// QueryExpectedRank returns the consensus expected rank per tuple.
func (l *LazyPrepared) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryExpectedRank(ctx)
}

// QueryMedianRank returns the consensus median rank per tuple.
func (l *LazyPrepared) QueryMedianRank(ctx context.Context) ([]float64, error) {
	p, err := l.Materialize(ctx)
	if err != nil {
		return nil, err
	}
	return p.QueryMedianRank(ctx)
}
