package andxor

import (
	"context"

	"repro/internal/pdb"
)

// This file is the and/xor-tree arm of the unified Ranker engine: the
// Query* methods make *PreparedTree satisfy engine.Ranker. The PRFe family
// runs on the prepared incremental Algorithm 3 state (cached leaf order,
// pooled evaluation buffers); the ω-based family (PRF, PRFω(h), PT(h))
// dispatches to the bivariate generating-function Algorithm 2 on the
// underlying tree — the fastest known kernels for each metric on correlated
// trees. Every answer is bit-for-bit what the package's one-shot functions
// return.

// QueryPRFe evaluates Υ_α per TupleID. Identical to PRFe / PRFeValues.
func (pt *PreparedTree) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	if err := pdb.CheckAlphaC(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pt.PRFe(alpha), nil
}

// QueryPRFeBatch evaluates Υ_α for every α of a batch over pooled
// evaluation states. out[a] is bit-for-bit PRFe(alphas[a]).
func (pt *PreparedTree) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	if err := pdb.CheckAlphaGridC(alphas); err != nil {
		return nil, err
	}
	return pt.prfeBatchCtx(ctx, alphas)
}

// QueryRankPRFe returns the PRFe(α) ranking by |Υ| — the paper's top-k
// convention for correlated data. Identical to RankPRFe.
func (pt *PreparedTree) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	if err := pdb.CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pt.RankPRFe(alpha), nil
}

// QueryRankPRFeBatch ranks every α of a batch in parallel. out[a] is
// bit-for-bit RankPRFe(alphas[a]).
func (pt *PreparedTree) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pt.rankBatch(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryTopKPRFeBatch answers top-k at every α of a batch. out[a] is
// bit-for-bit RankPRFe(alphas[a]).TopK(k).
func (pt *PreparedTree) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := pdb.CheckTopK(k); err != nil {
		return nil, err
	}
	out := make([]pdb.Ranking, len(alphas))
	if err := pt.rankBatch(ctx, alphas, func(a int, r pdb.Ranking) { out[a] = r.TopK(k) }); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryPRFeCombo evaluates Σ_l u_l·Υ_{α_l} — the correlated-data backend of
// the Section 5.1 approximation — with one incremental pass per term over
// pooled states, summed in term order: bit-for-bit Σ_l u_l·PRFe(α_l).
func (pt *PreparedTree) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	if err := pdb.CheckCombo(us, alphas); err != nil {
		return nil, err
	}
	vals, err := pt.prfeBatchCtx(ctx, alphas[:len(us)])
	if err != nil {
		return nil, err
	}
	return pdb.ComboSum(us, vals, pt.Len()), nil
}

// QueryPRF evaluates Υω with the bivariate generating-function Algorithm 2
// (O(n²·min(n, tree width)) worst case). Identical to PRF on the tree.
func (pt *PreparedTree) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if omega == nil {
		return nil, pdb.ErrNilOmega
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return PRF(pt.t, omega), nil
}

// QueryPRFOmega evaluates the PRFω(h) family via the truncated Algorithm 2.
// Identical to PRFOmega on the tree.
func (pt *PreparedTree) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	if err := pdb.CheckWeights(w); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return PRFOmega(pt.t, w), nil
}

// QueryPTh evaluates Pr(r(t) ≤ h). Identical to PTh on the tree.
func (pt *PreparedTree) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	if err := pdb.CheckDepth(h); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return PTh(pt.t, h), nil
}

// QueryERank returns E[r(t)] per leaf over the cached order and world-size
// constant. Identical to ERank / ExpectedRanks.
func (pt *PreparedTree) QueryERank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pt.ERank(), nil
}

// QueryExpectedRank returns the consensus expected rank (absent → |pw|+1)
// per leaf. Identical to ExpectedRank.
func (pt *PreparedTree) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pt.ExpectedRank(), nil
}

// QueryMedianRank returns the consensus median rank per leaf over the tree's
// exact rank distribution. Identical to MedianRank.
func (pt *PreparedTree) QueryMedianRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return pt.MedianRank(), nil
}
