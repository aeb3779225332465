package andxor

import (
	"sync"

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
// and every query checks a private evaluation state out of an internal pool.
// The PRFe methods come from the embedded pdb.PRFeFront over prfeInto, which
// fans batch α values across GOMAXPROCS goroutines over the shared view.
type PreparedTree struct {
	pdb.PRFeFront[*PreparedTree, *prfeEval]

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
	pt.PRFeFront = pdb.NewPRFeFront(pt, t.Len(), (*PreparedTree).getEval, (*PreparedTree).prfeInto, (*PreparedTree).putEval)
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
// cached leaf order, writing Υ_α per TupleID into out (length n) — the
// front's fill hook, on a state fresh from getEval. The arithmetic is
// identical, operation for operation, to a fresh PRFeValues evaluation, so
// results are bit-for-bit equal to the one-shot path.
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
		// With the leaves ranked after t labelled x, B(x) = Σ_j Pr(t ∧ j of
		// them present)·x^j, so B'(1) = Σ_{s after t} Pr(s ∧ t).
		out[id] = pt.c - evalDual(t.root, pos, i).db
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
