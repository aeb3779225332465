package pdb

import (
	"context"
	"math/cmplx"

	"repro/internal/par"
)

// PRFeFront is the one PRFe query surface of the correlated backends
// (andxor.PreparedTree, junction.PreparedNetwork, junction.PreparedChain).
// Each backend view V keeps only its per-α kernel and builds the front from
// three hooks over a private evaluation state S, typically method
// expressions such as (*PreparedTree).prfeInto, which cost no allocation:
//
//   - acquire checks a state out (a pooled Algorithm 3 buffer set, a
//     product tree, the cached rank distribution);
//   - fill writes Υ_α per TupleID into out (length n) on that state;
//   - release hands the state back (nil: nothing to hand back).
//
// The front then supplies PRFe, RankPRFe and the six PRFe Query* methods of
// engine.Ranker — validation, cancellation, the par fan-out with one state
// checked out per grid point and one value buffer per worker, the cut to
// top-k and the combo sum — and a view embeds it so method promotion
// satisfies the interface. Every answer is the kernel's fill at that α, so
// batch results equal the serial ones bit for bit. Hooks are never called
// on an empty view (n = 0), and every state acquired is released before the
// grid point that acquired it ends, canceled or not.
type PRFeFront[V, S any] struct {
	view    V
	n       int
	acquire func(v V) S
	fill    func(v V, s S, alpha complex128, out []complex128)
	release func(v V, s S)
}

// NewPRFeFront builds the front of an n-tuple view from its kernel hooks.
func NewPRFeFront[V, S any](view V, n int, acquire func(v V) S, fill func(v V, s S, alpha complex128, out []complex128), release func(v V, s S)) PRFeFront[V, S] {
	return PRFeFront[V, S]{view: view, n: n, acquire: acquire, fill: fill, release: release}
}

// fillOne writes Υ_α into out on a state checked out for this grid point
// alone, so nothing stays checked out between points and a canceled grid
// has nothing to hand back. An empty view has nothing to fill.
func (f *PRFeFront[V, S]) fillOne(alpha complex128, out []complex128) {
	if f.n == 0 {
		return
	}
	s := f.acquire(f.view)
	f.fill(f.view, s, alpha, out)
	if f.release != nil {
		f.release(f.view, s)
	}
}

// PRFe evaluates Υ_α for every tuple on one checked-out state. α may be
// complex; for ranking with real α use RankPRFe.
func (f *PRFeFront[V, S]) PRFe(alpha complex128) []complex128 {
	out := make([]complex128, f.n)
	f.fillOne(alpha, out)
	return out
}

// RankPRFe returns the PRFe(α) ranking for real α, by |Υ| as the paper's
// top-k definition prescribes for correlated data.
func (f *PRFeFront[V, S]) RankPRFe(alpha float64) Ranking {
	return RankByAbs(f.PRFe(complex(alpha, 0)))
}

// QueryPRFe evaluates Υ_α per TupleID. Identical to PRFe.
func (f *PRFeFront[V, S]) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	if err := CheckAlphaC(alpha); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return f.PRFe(alpha), nil
}

// QueryRankPRFe returns the PRFe(α) ranking by |Υ|. Identical to RankPRFe.
func (f *PRFeFront[V, S]) QueryRankPRFe(ctx context.Context, alpha float64) (Ranking, error) {
	if err := CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return f.RankPRFe(alpha), nil
}

// QueryPRFeBatch evaluates Υ_α for every α of a grid. out[a] is bit-for-bit
// PRFe(alphas[a]).
func (f *PRFeFront[V, S]) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	if err := CheckAlphaGridC(alphas); err != nil {
		return nil, err
	}
	return f.batch(ctx, alphas)
}

// QueryRankPRFeBatch ranks every α of a grid. out[a] is bit-for-bit
// RankPRFe(alphas[a]).
func (f *PRFeFront[V, S]) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]Ranking, error) {
	if err := CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	return f.rankBatch(ctx, alphas, -1)
}

// QueryTopKPRFeBatch answers top-k at every α of a grid. out[a] is
// bit-for-bit RankPRFe(alphas[a]).TopK(k).
func (f *PRFeFront[V, S]) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]Ranking, error) {
	if err := CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := CheckTopK(k); err != nil {
		return nil, err
	}
	return f.rankBatch(ctx, alphas, k)
}

// QueryPRFeCombo evaluates Σ_l u_l·Υ_{α_l}: one pass per term, summed in
// term order by ComboSum, so bit-for-bit Σ_l u_l·PRFe(α_l).
func (f *PRFeFront[V, S]) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	if err := CheckCombo(us, alphas); err != nil {
		return nil, err
	}
	vals, err := f.batch(ctx, alphas[:len(us)])
	if err != nil {
		return nil, err
	}
	return ComboSum(us, vals, f.n), nil
}

// batch evaluates PRFe at every α of a validated grid into fresh rows,
// fanning the grid across par workers and honoring ctx between grid
// points.
func (f *PRFeFront[V, S]) batch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	out := make([][]complex128, len(alphas))
	err := par.ForWorkersCtx(ctx, par.Workers(len(alphas)), len(alphas), func(_, a int) {
		out[a] = make([]complex128, f.n)
		f.fillOne(alphas[a], out[a])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rankBatch ranks every α of a validated grid by |Υ| like batch, reusing
// one value and one magnitude buffer per worker; k ≥ 0 cuts each ranking
// to top-k.
func (f *PRFeFront[V, S]) rankBatch(ctx context.Context, alphas []float64, k int) ([]Ranking, error) {
	out := make([]Ranking, len(alphas))
	workers := par.Workers(len(alphas))
	vals := make([][]complex128, workers)
	abs := make([][]float64, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if vals[w] == nil {
			vals[w], abs[w] = make([]complex128, f.n), make([]float64, f.n)
		}
		f.fillOne(complex(alphas[a], 0), vals[w])
		for i, v := range vals[w] {
			abs[w][i] = cmplx.Abs(v)
		}
		// A fresh ranking per α, non-nil even when n = 0.
		r := RankByValueInto(abs[w], make(Ranking, 0, f.n))
		if k >= 0 {
			r = r.TopK(k)
		}
		out[a] = r
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
