package junction

import (
	"context"

	"repro/internal/pdb"
)

// This file holds the two graphical-model arms of the unified Ranker
// engine. The PRFe family (QueryPRFe, the batches, QueryPRFeCombo) of
// *PreparedNetwork and *PreparedChain is promoted from the embedded
// pdb.PRFeFront over each view's prfeInto kernel; the methods below make up
// the rest of engine.Ranker.
//
// E-Rank and Expected-Rank need no rank distribution on either view: by
// linearity of expectation E[r(t)] = E|pw| − Σ_{s ranked after t}
// Pr(s ∧ t), a sum of pairwise joint masses (absent tuples take rank |pw|).
// A network gets each tuple's sum from one Section 9.4 DP with the
// lower-ranked variables marked; a chain walks a two-state vector forward
// from each variable, O(n²) in all.
//
// On a PreparedNetwork every other ranking function folds the cached
// rank-distribution matrix (one Section 9.4 DP pass, ever), so the marginal
// cost of a query after the first is an O(n²) fold; PRFe folds it with
// powers of α. On a PreparedChain PRFe runs the O(n log n) product-tree
// algorithm. PT(h) and PRFω(h) need only the first h coefficients of each
// tuple's partial-sum generating function, so they run the Section 9.3 DP
// truncated to h coefficients, O(n²·h) per query. Arbitrary-ω PRF and
// Median-Rank weigh every rank and fold the chain's Θ(n³) rank-distribution
// matrix, built by the same DP once and cached.

// ---------------------------------------------------------------------------
// PreparedNetwork: arbitrary correlations via the junction tree.
// ---------------------------------------------------------------------------

// QueryPRF evaluates Υω by folding the cached rank distribution with the
// weight function, one ctx check per tuple row. Identical to PRF.
func (pn *PreparedNetwork) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if omega == nil {
		return nil, pdb.ErrNilOmega
	}
	return pn.fold(ctx, omega)
}

// QueryPRFOmega evaluates the PRFω(h) family: the weight vector folded as
// an ω function over the cached matrix.
func (pn *PreparedNetwork) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	if err := pdb.CheckWeights(w); err != nil {
		return nil, err
	}
	return pn.fold(ctx, weightVecOmega(w))
}

// QueryPTh evaluates Pr(r(t) ≤ h): the step weight folded over the cached
// matrix.
func (pn *PreparedNetwork) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	if err := pdb.CheckDepth(h); err != nil {
		return nil, err
	}
	return pn.fold(ctx, stepOmega(h))
}

// fold checks ctx before the (possibly first, uncancellable) matrix build,
// then folds the cached matrix with omega, checking ctx per row.
func (pn *PreparedNetwork) fold(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return foldOmega(ctx, pn.RankDistribution(), pn.jt.net.scores, pn.marg, omega)
}

// QueryERank returns E[r(t)] per tuple (absent tuples take rank |pw|): one
// partial-sum DP per tuple on a pooled evaluation state, with a ctx check
// before each, and no rank-distribution matrix. Identical to
// JTree.ExpectedRanks.
func (pn *PreparedNetwork) QueryERank(ctx context.Context) ([]float64, error) {
	e := pn.getEval()
	defer pn.putEval(e)
	return e.expectedRanks(ctx)
}

// QueryExpectedRank returns the consensus expected rank (the Li/Deshpande
// convention: absent tuples take rank |pw|+1): E-Rank plus the absence mass
// 1 − marginal, the exact gap between the two conventions on every world.
func (pn *PreparedNetwork) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	out, err := pn.QueryERank(ctx)
	if err != nil {
		return nil, err
	}
	for v := range out {
		out[v] += 1 - pn.marg[v]
	}
	return out, nil
}

// QueryMedianRank returns the consensus median rank per tuple over the
// cached rank-distribution matrix. Identical to MedianRank.
func (pn *PreparedNetwork) QueryMedianRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.MedianRank(), nil
}

// weightVecOmega adapts a PRFω weight vector to the ω-function form the
// rank-distribution folds take: w[j] weighs rank j+1, ranks beyond len(w)
// weigh zero.
func weightVecOmega(w []float64) func(t pdb.Tuple, rank int) float64 {
	return func(_ pdb.Tuple, rank int) float64 {
		if rank >= 1 && rank <= len(w) {
			return w[rank-1]
		}
		return 0
	}
}

// stepOmega is the PT(h) step weight as an ω function.
func stepOmega(h int) func(t pdb.Tuple, rank int) float64 {
	return func(_ pdb.Tuple, rank int) float64 {
		if rank <= h {
			return 1
		}
		return 0
	}
}

// foldOmega folds a rank-distribution matrix with a weight function,
// out[v] = Σ_j ω(t_v, j)·Pr(r(t_v) = j), skipping zero entries: the one
// ω-fold of both matrix-backed views. scores and probs give each tuple's
// score and presence marginal by variable index. One cancellation check per
// tuple row: the inner fold is Θ(n) calls into a user-supplied ω, so a
// stuck deadline surfaces after at most one row. A nil ctx never cancels.
func foldOmega(ctx context.Context, rd *pdb.RankDistribution, scores, probs []float64, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	out := make([]float64, len(rd.Dist))
	for v, row := range rd.Dist {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		tu := pdb.Tuple{ID: pdb.TupleID(v), Score: scores[v], Prob: probs[v]}
		for j, p := range row {
			if p != 0 {
				out[v] += omega(tu, j+1) * p
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// PreparedChain: the Section 9.3 Markov-chain special case.
// ---------------------------------------------------------------------------

// QueryPRF evaluates Υω by folding the cached chain rank distribution
// (Θ(n³) on first use, O(n²) afterwards): an arbitrary ω may weigh every
// rank, so it needs the whole matrix. PT(h) and PRFω(h) weigh only the top
// h ranks and skip the matrix (prefixFold).
func (pc *PreparedChain) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if omega == nil {
		return nil, pdb.ErrNilOmega
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	probs := make([]float64, pc.Len())
	for v := range probs {
		probs[v] = pc.m[v][1]
	}
	return foldOmega(ctx, pc.RankDistribution(), pc.c.scores, probs, omega)
}

// QueryPRFOmega evaluates the PRFω(h) family, h = len(w), with the
// partial-sum DP truncated to h coefficients. Bit-for-bit the fold of w
// over the rank distribution.
func (pc *PreparedChain) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	if err := pdb.CheckWeights(w); err != nil {
		return nil, err
	}
	return pc.prefixFold(ctx, w)
}

// QueryPTh evaluates Pr(r(t) ≤ h) with the partial-sum DP truncated to h
// coefficients: PRFω(h) with unit weights. Bit-for-bit the step-weight
// fold over the rank distribution.
func (pc *PreparedChain) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	if err := pdb.CheckDepth(h); err != nil {
		return nil, err
	}
	w := make([]float64, min(h, pc.Len()))
	for p := range w {
		w[p] = 1
	}
	return pc.prefixFold(ctx, w)
}

// prefixFold computes Σ_{p<len(w)} w[p]·Pr(Y_t = 1 ∧ S_t = p) per tuple t,
// S_t the number of present higher-ranked variables — the rank
// distribution's first len(w) columns folded with w, in the same order and
// with the same zero skip as QueryPRF, so the answers match bit for bit.
// Walking the tuples in score order marks one more variable per step; each
// tuple runs the DP truncated to min(len(w), n) coefficients, O(n²·h) in
// all, and never builds or waits on the cached matrix.
func (pc *PreparedChain) prefixFold(ctx context.Context, w []float64) ([]float64, error) {
	n := pc.Len()
	limit := min(len(w), n)
	out := make([]float64, n)
	sums := make([]float64, limit)
	rows := newSumRows(limit)
	marked := make([]bool, n)
	for _, v := range pc.order {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		if limit > 0 {
			pc.partialSums(v, marked, sums, rows)
			for p, q := range sums {
				if q != 0 {
					out[v] += w[p] * q
				}
			}
		}
		marked[v] = true
	}
	return out, nil
}

// QueryERank returns E[r(t)] per tuple (absent tuples take rank |pw|) as
// E|pw| − Σ_{s ranked after t} Pr(Y_s = 1 ∧ Y_t = 1). A two-state walk
// forward from each variable v carries (Pr(Y_v = 1 ∧ Y_u = 0),
// Pr(Y_v = 1 ∧ Y_u = 1)) through the transition tables, so every pair joint
// costs O(1): O(n²) time and O(n) memory in all, one ctx check per walk,
// and no rank-distribution matrix.
func (pc *PreparedChain) QueryERank(ctx context.Context) ([]float64, error) {
	n := pc.Len()
	pos := make([]int, n)
	var c float64 // E|pw| = Σ marginals
	for i, v := range pc.order {
		pos[v] = i
		c += pc.m[v][1]
	}
	out := make([]float64, n) // −Σ_{s ranked after v} Pr(Y_s = 1 ∧ Y_v = 1) until the end
	for v := 0; v < n; v++ {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		a0, a1 := 0.0, pc.m[v][1]
		for u := v + 1; u < n; u++ {
			t := &pc.cond[u-1]
			a0, a1 = a0*t[0][0]+a1*t[1][0], a0*t[0][1]+a1*t[1][1]
			// The pair's joint counts against whichever of the two ranks
			// higher: the other is ranked after it.
			if pos[u] > pos[v] {
				out[v] -= a1
			} else {
				out[u] -= a1
			}
		}
	}
	for v := range out {
		out[v] += c
	}
	return out, nil
}

// QueryExpectedRank returns the consensus expected rank (absent → |pw|+1)
// per tuple: the E-Rank vector plus the absence mass 1 − Pr(Y_t = 1), the
// exact gap between the two conventions.
func (pc *PreparedChain) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	out, err := pc.QueryERank(ctx)
	if err != nil {
		return nil, err
	}
	for v := range out {
		out[v] += 1 - pc.m[v][1]
	}
	return out, nil
}

// QueryMedianRank returns the consensus median rank per tuple folded from
// the cached Θ(n³) chain rank distribution.
func (pc *PreparedChain) QueryMedianRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pdb.MedianRankFromDistribution(pc.RankDistribution(), pc.Len()), nil
}
