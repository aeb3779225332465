package core

import (
	"context"

	"repro/internal/par"
	"repro/internal/pdb"
)

// This file is the independent-tuples arm of the unified Ranker engine: the
// Query* methods make *Prepared satisfy engine.Ranker — context-aware,
// error-returning entry points over the same kernels the package's one-shot
// functions call, so every answer is bit-for-bit what they return. Dispatch
// picks the fastest kernel available here: top-k answers come from
// certified score prefixes (topk.go), monotone α grids otherwise ride the
// kinetic sweep (one sort plus Theorem 4 crossings), other batches fan out
// per α across GOMAXPROCS workers, and single queries run the fused scans
// directly.

// QueryPRFe evaluates Υ_α per TupleID. Identical to PRFe.
func (v *Prepared) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	if err := pdb.CheckAlphaC(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.PRFe(alpha), nil
}

// QueryPRFeBatch evaluates Υ_α per TupleID for every α of a batch, fanning
// the grid across GOMAXPROCS workers. out[a] is bit-for-bit PRFe(alphas[a]).
func (v *Prepared) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	if err := pdb.CheckAlphaGridC(alphas); err != nil {
		return nil, err
	}
	out := make([][]complex128, len(alphas))
	err := par.ForWorkersCtx(ctx, par.Workers(len(alphas)), len(alphas), func(_, a int) {
		out[a] = v.PRFe(alphas[a])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryRankPRFe returns the full PRFe(α) ranking — RankByValue over the
// log-domain evaluation, exactly as RankPRFe.
func (v *Prepared) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	if err := pdb.CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.RankPRFe(alpha), nil
}

// QueryRankPRFeBatch ranks every α of a batch: strictly increasing grids in
// (0, 1] ride the kinetic sweep, anything else runs per α in parallel.
// out[a] is bit-for-bit RankPRFe(alphas[a]).
func (v *Prepared) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if len(alphas) >= 2 && gridForSweep(alphas) {
		return v.RankPRFeSweep(ctx, alphas)
	}
	return v.rankPRFeParallelCtx(ctx, alphas)
}

// QueryTopKPRFeBatch answers top-k at every α of a batch through the
// certified score-prefix selector (topk.go). A strictly increasing grid in
// (0, 1] is answered from prefixes of at most n/2 positions per point, or,
// if any point needs more, by the kinetic sweep; any other batch runs one
// selector per α in parallel. out[a] is bit-for-bit
// RankPRFe(alphas[a]).TopK(k).
func (v *Prepared) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if err := pdb.CheckAlphaGrid(alphas); err != nil {
		return nil, err
	}
	if err := pdb.CheckTopK(k); err != nil {
		return nil, err
	}
	if len(alphas) >= 2 && gridForSweep(alphas) {
		out, ok, err := v.topKPRFeCertified(ctx, alphas, k)
		if err != nil || ok {
			return out, err
		}
		return v.TopKPRFeSweep(ctx, alphas, k)
	}
	return v.topKPRFeParallelCtx(ctx, alphas, k)
}

// QueryPRFeCombo evaluates Σ_l u_l·Υ_{α_l} with the fused single-pass
// kernel. Identical to PRFeCombo on the term sequence (u_l, α_l).
func (v *Prepared) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	if err := pdb.CheckCombo(us, alphas); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	terms := make([]ExpTerm, len(us))
	for i := range us {
		terms[i] = ExpTerm{U: us[i], Alpha: alphas[i]}
	}
	return v.PRFeCombo(terms), nil
}

// QueryPRF evaluates Υω for an arbitrary weight function. Identical to PRF.
func (v *Prepared) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	if omega == nil {
		return nil, pdb.ErrNilOmega
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.PRF(omega), nil
}

// QueryPRFOmega evaluates the PRFω(h) family for a weight vector. Identical
// to PRFOmega.
func (v *Prepared) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	if err := pdb.CheckWeights(w); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.PRFOmega(w), nil
}

// QueryPTh evaluates Pr(r(t) ≤ h). Identical to PTh.
func (v *Prepared) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	if err := pdb.CheckDepth(h); err != nil {
		return nil, err
	}
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.PTh(h), nil
}

// QueryERank returns E[r(t)] per tuple (lower is better). Identical to
// ERank / baselines.ERankPrepared.
func (v *Prepared) QueryERank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.ERank(), nil
}

// QueryExpectedRank returns the consensus expected rank (absent → |pw|+1)
// per tuple. Identical to ExpectedRank.
func (v *Prepared) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.ExpectedRank(), nil
}

// QueryMedianRank returns the consensus median rank per tuple. Identical to
// MedianRank.
func (v *Prepared) QueryMedianRank(ctx context.Context) ([]float64, error) {
	if err := pdb.CtxErr(ctx); err != nil {
		return nil, err
	}
	return v.MedianRank(), nil
}
