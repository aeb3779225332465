package junction

import (
	"context"

	"repro/internal/par"
	"repro/internal/pdb"
)

// This file holds the two graphical-model arms of the unified Ranker
// engine: the Query* methods make *PreparedNetwork and *PreparedChain
// satisfy engine.Ranker.
//
// On a PreparedNetwork every ranking function folds the cached
// rank-distribution matrix (one Section 9.4 DP pass, ever), so the marginal
// cost of a query after the first is an O(n²) fold. On a PreparedChain the
// PRFe family runs the O(n log n) product-tree algorithm. PT(h) and PRFω(h)
// need only the first h coefficients of each tuple's partial-sum generating
// function, so they run the Section 9.3 DP truncated to h coefficients,
// O(n²·h) per query. Arbitrary-ω PRF, Median-Rank and E-Rank weigh every
// rank and fold the chain's Θ(n³) rank-distribution matrix, built by the
// same DP once and cached.

// ---------------------------------------------------------------------------
// PreparedNetwork: arbitrary correlations via the junction tree.
// ---------------------------------------------------------------------------

// QueryPRFe evaluates Υ_α per TupleID by folding the cached rank
// distribution. Identical to PRFe.
func (pn *PreparedNetwork) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	if err := pdb.CheckAlphaC(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.PRFe(alpha), nil
}

// QueryPRFeBatch evaluates Υ_α for every α of a grid: the DP runs (at most)
// once and the per-α folds fan out across workers. out[a] is bit-for-bit
// PRFe(alphas[a]).
func (pn *PreparedNetwork) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	if err := pdb.CheckAlphaGridC(alphas); err != nil {
		return nil, err
	}
	return pn.prfeBatchCtx(ctx, alphas)
}

// QueryRankPRFe returns the PRFe(α) ranking by |Υ|. Identical to RankPRFe.
func (pn *PreparedNetwork) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	if err := pdb.CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.RankPRFe(alpha), nil
}

// rankBatchCtx runs the per-α fold-and-rank loop with one value buffer per
// worker.
func (pn *PreparedNetwork) rankBatchCtx(ctx context.Context, alphas []float64, emit func(a int, r pdb.Ranking)) error {
	rd := pn.RankDistribution()
	n := pn.Len()
	workers := par.Workers(len(alphas))
	vals := make([][]complex128, workers)
	return par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if vals[w] == nil {
			vals[w] = make([]complex128, n)
		}
		alpha := complex(alphas[a], 0)
		for v := 0; v < n; v++ {
			vals[w][v] = prfeFold(rd.Dist[v], alpha)
		}
		emit(a, pdb.RankByAbs(vals[w]))
	})
}

// QueryRankPRFeBatch ranks every α of a grid in parallel over the cached
// matrix. out[a] is bit-for-bit RankPRFe(alphas[a]).
func (pn *PreparedNetwork) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pn.rankBatchCtx(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryTopKPRFeBatch answers top-k at every α of a grid. out[a] is
// bit-for-bit RankPRFe(alphas[a]).TopK(k).
func (pn *PreparedNetwork) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := pdb.CheckTopK(k); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pn.rankBatchCtx(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r.TopK(k) }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryPRFeCombo evaluates Σ_l u_l·Υ_{α_l}: per-term folds of the cached
// matrix summed in term order.
func (pn *PreparedNetwork) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	if err := pdb.CheckCombo(us, alphas); err != nil {
		return nil, err
	}
	vals, err := pn.QueryPRFeBatch(ctx, alphas[:len(us)])
	if err != nil {
		return nil, err
	}
	return pdb.ComboSum(us, vals, pn.Len()), nil
}

// QueryPRF evaluates Υω by folding the cached rank distribution with the
// weight function. Identical to PRF.
func (pn *PreparedNetwork) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if omega == nil {
		return nil, pdb.ErrNilOmega
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.PRF(omega), nil
}

// QueryPRFOmega evaluates the PRFω(h) family: the weight vector folded as
// an ω function over the cached matrix.
func (pn *PreparedNetwork) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	if err := pdb.CheckWeights(w); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.PRF(weightVecOmega(w)), nil
}

// QueryPTh evaluates Pr(r(t) ≤ h): the step weight folded over the cached
// matrix.
func (pn *PreparedNetwork) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	if err := pdb.CheckDepth(h); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.PRF(stepOmega(h)), nil
}

// QueryERank returns E[r(t)] per tuple via the partial-sum DP. Identical to
// ERank / JTree.ExpectedRanks.
func (pn *PreparedNetwork) QueryERank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.ERank(), nil
}

// QueryExpectedRank returns the consensus expected rank (absent → |pw|+1)
// per tuple. Identical to ExpectedRank.
func (pn *PreparedNetwork) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pn.ExpectedRank(), nil
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

// ---------------------------------------------------------------------------
// PreparedChain: the Section 9.3 Markov-chain special case.
// ---------------------------------------------------------------------------

// QueryPRFe evaluates Υ_α per TupleID with the O(n log n) product-tree
// algorithm. Identical to PRFe / PRFeChain.
func (pc *PreparedChain) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	if err := pdb.CheckAlphaC(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pc.PRFe(alpha), nil
}

// QueryPRFeBatch evaluates Υ_α for every α of a grid over pooled product
// trees. out[a] is bit-for-bit PRFe(alphas[a]).
func (pc *PreparedChain) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	if err := pdb.CheckAlphaGridC(alphas); err != nil {
		return nil, err
	}
	return pc.prfeBatchCtx(ctx, alphas)
}

// QueryRankPRFe returns the PRFe(α) ranking by |Υ|. Identical to RankPRFe.
func (pc *PreparedChain) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	if err := pdb.CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pc.RankPRFe(alpha), nil
}

// QueryRankPRFeBatch ranks every α of a grid in parallel. out[a] is
// bit-for-bit RankPRFe(alphas[a]).
func (pc *PreparedChain) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pc.rankBatchCtx(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryTopKPRFeBatch answers top-k at every α of a grid. out[a] is
// bit-for-bit RankPRFe(alphas[a]).TopK(k).
func (pc *PreparedChain) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := pdb.CheckTopK(k); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pc.rankBatchCtx(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r.TopK(k) }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryPRFeCombo evaluates Σ_l u_l·Υ_{α_l}: per-term product-tree passes
// summed in term order.
func (pc *PreparedChain) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	if err := pdb.CheckCombo(us, alphas); err != nil {
		return nil, err
	}
	vals, err := pc.prfeBatchCtx(ctx, alphas[:len(us)])
	if err != nil {
		return nil, err
	}
	return pdb.ComboSum(us, vals, pc.Len()), nil
}

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
	rd := pc.RankDistribution()
	out := make([]float64, pc.Len())
	for v := range out {
		// One cancellation check per tuple row: the inner fold is Θ(n)
		// calls into user-supplied ω, so a stuck deadline surfaces after
		// at most one row, matching the engine's grid-point granularity.
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		tu := pdb.Tuple{ID: pdb.TupleID(v), Score: pc.c.scores[v], Prob: pc.m[v][1]}
		for j, p := range rd.Dist[v] {
			if p != 0 {
				out[v] += omega(tu, j+1) * p
			}
		}
	}
	return out, nil
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

// QueryERank returns E[r(t)] per tuple with the Section 3.3 decomposition:
// er1 folds the cached rank distribution, er2 runs one all-others-marked
// partial-sum DP per tuple (the same convention as the junction-tree
// ExpectedRanks: absent tuples take rank |pw|). The vector is deterministic
// on an immutable view, so it is computed once and cached; callers get a
// private copy.
func (pc *PreparedChain) QueryERank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	pc.erMu.Lock()
	cached := pc.er
	pc.erMu.Unlock()
	if cached == nil {
		computed, err := pc.computeERank(ctx)
		if err != nil {
			return nil, err // canceled mid-compute: nothing cached
		}
		pc.erMu.Lock()
		if pc.er == nil {
			pc.er = computed
		}
		cached = pc.er
		pc.erMu.Unlock()
	}
	out := make([]float64, len(cached))
	copy(out, cached)
	return out, nil
}

// QueryExpectedRank returns the consensus expected rank (absent → |pw|+1)
// per tuple: the cached Cormode-convention vector plus the absence mass
// 1 − Pr(Y_t = 1), the exact gap between the two conventions.
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

func (pc *PreparedChain) computeERank(ctx context.Context) ([]float64, error) {
	rd := pc.RankDistribution()
	n := pc.Len()
	var c float64 // E[|pw|] = Σ marginals
	for v := 0; v < n; v++ {
		c += pc.m[v][1]
	}
	out := make([]float64, n)
	sums := make([]float64, n)
	rows := newSumRows(n)
	others := make([]bool, n)
	for u := range others {
		others[u] = true
	}
	for v := 0; v < n; v++ {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		var er1 float64
		for j, p := range rd.Dist[v] {
			er1 += float64(j+1) * p
		}
		others[v] = false
		pc.partialSums(v, others, sums, rows)
		others[v] = true
		var withT float64 // E[|pw|·δ(t∈pw)]
		for p, q := range sums {
			withT += float64(p+1) * q
		}
		out[v] = er1 + (c - withT)
	}
	return out, nil
}
