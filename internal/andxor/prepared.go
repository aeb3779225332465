package andxor

import (
	"context"
	"math/cmplx"
	"sync"

	"repro/internal/par"
	"repro/internal/pdb"
)

// PreparedTree is the correlated-data analogue of core.Prepared: an immutable
// view of an and/xor tree that pays the indexing work — the O(n log n)
// ranked leaf order and the O(m) incremental-evaluation buffers of
// Algorithm 3 — exactly once, and then serves any number of PRFe, PRFe-combo
// and expected-rank queries without re-sorting or re-allocating. One-shot
// calls spend most of their time on exactly that per-call setup (sorting the
// leaves dominates the profile at n = 10⁴), so amortizing it is what makes
// α-spectrum sweeps and multi-term combinations on trees cheap.
//
// A PreparedTree is safe for concurrent use: the cached order is read-only
// and every query checks a private evaluation state out of an internal pool,
// so the batch queries (QueryPRFeBatch, QueryRankPRFeBatch,
// QueryTopKPRFeBatch, QueryPRFeCombo) can fan α values across GOMAXPROCS
// goroutines over the shared view.
type PreparedTree struct {
	t     *Tree
	order []pdb.TupleID // leaves by non-increasing score, ties by ID
	c     float64       // Σ leaf marginals (the E-Rank constant)
	pool  sync.Pool     // *prfeEval scratch, reset on checkout
}

// PrepareTree builds the prepared view of a tree. The tree is never mutated;
// the one-shot package functions (PRFeValues, RankPRFe, ExpectedRanks) are
// thin prepare-then-call wrappers over the same methods.
func PrepareTree(t *Tree) *PreparedTree {
	pt := &PreparedTree{t: t, order: t.sortedLeafOrder()}
	for id := 0; id < t.Len(); id++ {
		pt.c += t.leaves[id].marginal
	}
	return pt
}

// Len returns the number of leaves (tuples).
func (pt *PreparedTree) Len() int { return pt.t.Len() }

// Tree returns the underlying tree.
func (pt *PreparedTree) Tree() *Tree { return pt.t }

// getEval checks an incremental evaluation state out of the pool, resetting
// a recycled one to the all-leaves-1 labeling. Fresh states are built (and
// initialized) on demand, so concurrent queries each hold a private state.
func (pt *PreparedTree) getEval() *prfeEval {
	if e, ok := pt.pool.Get().(*prfeEval); ok {
		e.reset()
		return e
	}
	return newPRFeEval(pt.t)
}

func (pt *PreparedTree) putEval(e *prfeEval) { pt.pool.Put(e) }

// prfeInto runs one incremental Algorithm 3 pass at the given α over the
// cached leaf order, writing Υ_α per TupleID into out (length n). The
// arithmetic is identical, operation for operation, to a fresh PRFeValues
// evaluation, so results are bit-for-bit equal to the one-shot path.
func (pt *PreparedTree) prfeInto(e *prfeEval, alpha complex128, out []complex128) {
	t := pt.t
	rootIdx := t.root.idx
	for i, id := range pt.order {
		if i > 0 {
			// Previous target leaf: y → x, i.e. values (α, α).
			e.setLeaf(t.leaves[pt.order[i-1]], alpha, alpha)
		}
		// Current target leaf: 1 → y, i.e. values (α, 0).
		e.setLeaf(t.leaves[id], alpha, 0)
		out[id] = e.vAA[rootIdx] - e.vA0[rootIdx]
	}
}

// PRFe computes Υ_α for every leaf with the incremental Algorithm 3 over the
// prepared order. α may be complex; for ranking with real α use RankPRFe or
// take AbsParts. Results are identical to PRFeValues.
func (pt *PreparedTree) PRFe(alpha complex128) []complex128 {
	out := make([]complex128, pt.Len())
	if pt.Len() == 0 {
		return out
	}
	e := pt.getEval()
	pt.prfeInto(e, alpha, out)
	pt.putEval(e)
	return out
}

// prfeBatchCtx evaluates PRFe for every α of a batch, fanning the grid
// across GOMAXPROCS goroutines; each worker drains its share of the grid
// with one pooled evaluation state, and cancellation is honored between
// grid points. out[a] equals PRFe(alphas[a]) bit-for-bit. It is the body of
// QueryPRFeBatch and QueryPRFeCombo.
func (pt *PreparedTree) prfeBatchCtx(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	out := make([][]complex128, len(alphas))
	if pt.Len() == 0 {
		for a := range out {
			out[a] = make([]complex128, 0)
		}
		return out, nil
	}
	workers := par.WorkersFor(ctx, len(alphas))
	evals := make([]*prfeEval, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if evals[w] == nil {
			evals[w] = pt.getEval()
		} else {
			evals[w].reset()
		}
		out[a] = make([]complex128, pt.Len())
		pt.prfeInto(evals[w], alphas[a], out[a])
	})
	for _, e := range evals {
		if e != nil {
			pt.putEval(e)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RankPRFe returns the PRFe(α) ranking of the tree's leaves for real α,
// ranking by |Υ| as the paper's top-k definition prescribes.
func (pt *PreparedTree) RankPRFe(alpha float64) pdb.Ranking {
	return pdb.RankByAbs(pt.PRFe(complex(alpha, 0)))
}

// rankBatch runs the parallel per-α ranking loop behind QueryRankPRFeBatch
// and QueryTopKPRFeBatch, reusing one evaluation state and one value buffer
// per worker across the whole grid. Cancellation is honored between grid
// points.
func (pt *PreparedTree) rankBatch(ctx context.Context, alphas []float64, emit func(a int, r pdb.Ranking)) error {
	n := pt.Len()
	workers := par.WorkersFor(ctx, len(alphas))
	evals := make([]*prfeEval, workers)
	vals := make([][]complex128, workers)
	abs := make([][]float64, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if n == 0 {
			emit(a, pdb.Ranking{})
			return
		}
		if evals[w] == nil {
			evals[w] = pt.getEval()
			vals[w] = make([]complex128, n)
			abs[w] = make([]float64, n)
		} else {
			evals[w].reset()
		}
		pt.prfeInto(evals[w], complex(alphas[a], 0), vals[w])
		for i, v := range vals[w] {
			abs[w][i] = cmplx.Abs(v)
		}
		emit(a, pdb.RankByValue(abs[w]))
	})
	for _, e := range evals {
		if e != nil {
			pt.putEval(e)
		}
	}
	return err
}

// ERank returns E[r(t)] for every leaf (the Cormode et al. convention:
// absent tuples take rank |pw|) over the cached order and world-size
// constant. Results are identical to ExpectedRanks.
func (pt *PreparedTree) ERank() []float64 {
	t := pt.t
	n := t.Len()
	out := make([]float64, n)
	pos := make([]int, n)
	for i, id := range pt.order {
		pos[id] = i
	}
	for i, id := range pt.order {
		// er1: B(x) = Σ_j Pr(r=j)·x^{j−1} ⇒ Σ_j j·Pr(r=j) = B'(1)+B(1).
		d1 := evalDual(t.root, pos, i, false)
		er1 := d1.db + d1.b
		// er2: with all other leaves x, B(x) = Σ_j Pr(t ∧ j others)·x^j ⇒
		// E[|pw|·δ(t∈pw)] = B'(1)+B(1), and er2 = C − that.
		d2 := evalDual(t.root, pos, i, true)
		er2 := pt.c - (d2.db + d2.b)
		out[id] = er1 + er2
	}
	return out
}

// ExpectedRank returns the consensus expected rank (the Li/Deshpande
// convention: absent leaves take rank |pw|+1) for every leaf. The two
// conventions differ by one on exactly the worlds missing the leaf, so this
// is ERank plus the leaf's absence mass 1 − marginal.
func (pt *PreparedTree) ExpectedRank() []float64 {
	out := pt.ERank()
	for id := range out {
		out[id] += 1 - pt.t.Leaf(pdb.TupleID(id)).Prob
	}
	return out
}

// MedianRank returns the consensus median rank per leaf: the smallest j with
// Pr(r(t) ≤ j) ≥ 1/2, or the sentinel n+1 when the leaf is absent from a
// majority of worlds. Folds the tree's exact rank distribution (Algorithm 2).
func (pt *PreparedTree) MedianRank() []float64 {
	return pdb.MedianRankFromDistribution(RankDistribution(pt.t), pt.Len())
}
