package andxor

import (
	"context"

	"repro/internal/pdb"
)

// This file is the and/xor-tree arm of the unified Ranker engine. The PRFe
// family (QueryPRFe, the batches, QueryPRFeCombo) is promoted from the
// embedded pdb.PRFeFront, which runs the prepared incremental Algorithm 3
// kernel (prfeInto over pooled evaluation states); the methods below make up
// the rest of engine.Ranker. The ω-based family (PRF, PRFω(h), PT(h))
// dispatches to the bivariate generating-function Algorithm 2 on the
// underlying tree — the fastest known kernels for each metric on correlated
// trees. Every answer is bit-for-bit what the package's one-shot functions
// return.

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
