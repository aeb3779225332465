// Package learn implements Section 5.2: learning the parameters of the
// ranking functions from user preferences.
//
// The features of a tuple are its positional probabilities Pr(r(t)=i), which
// cannot be computed per tuple in isolation — they depend on the whole
// relation — so, exactly as the paper prescribes, learning operates on a
// *sample* of the relation ranked by the user, with features computed as if
// the sample were the entire relation.
//
//   - LearnAlpha fits the single parameter of PRFe(α) with the paper's
//     recursive 9-point grid-refinement search, minimizing the normalized
//     Kendall distance to the user's ranking. The prior ranking functions
//     all exhibit a uni-valley distance profile (Section 8.1), so the
//     refinement converges to the global optimum in practice.
//   - LearnOmega fits a PRFω(h) weight vector with an L2-regularized
//     pairwise hinge loss — the RankSVM objective the paper optimizes with
//     SVM-light — minimized by deterministic subgradient descent
//     (stdlib-only substitute; see DESIGN.md §6).
package learn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/dftapprox"
	"repro/internal/engine"
	"repro/internal/pdb"
	"repro/internal/rankdist"
)

// AlphaResult is the outcome of LearnAlpha.
type AlphaResult struct {
	// Alpha is the fitted PRFe parameter in [0, 1].
	Alpha float64
	// Distance is the normalized Kendall top-k distance between the user
	// ranking and PRFe(Alpha) on the sample.
	Distance float64
	// Evaluations counts ranking evaluations spent by the search.
	Evaluations int
}

// LearnAlpha fits α by recursive grid refinement on [0,1] (Section 5.2): at
// each of iters rounds the current interval is probed at nine interior
// points, and the interval shrinks to the two grid cells around the best
// probe. k is the top-k length used by the Kendall distance (defaults to the
// user ranking's length).
func LearnAlpha(sample *pdb.Dataset, user pdb.Ranking, k, iters int) AlphaResult {
	// Sort once; the search evaluates many α — each refinement round's nine
	// ascending probes are a monotone grid, so one kinetic sweep answers the
	// whole round off a single sort instead of nine independent re-sorts.
	//lint:allow ctxflow legacy ctx-free wrapper; callers needing deadlines use LearnAlphaRanker directly
	return mustAlpha(LearnAlphaRanker(context.Background(), core.Prepare(sample), user, k, iters))
}

// LearnAlphaTree fits α from a user-ranked sample of *correlated* data: the
// same recursive grid refinement as LearnAlpha, with every candidate ranking
// evaluated by the incremental and/xor Algorithm 3 on one shared
// PreparedTree — the tree is indexed once and each refinement round's
// nine-point grid runs as one parallel batch.
func LearnAlphaTree(sample *andxor.Tree, user pdb.Ranking, k, iters int) AlphaResult {
	//lint:allow ctxflow legacy ctx-free wrapper; callers needing deadlines use LearnAlphaRanker directly
	return mustAlpha(LearnAlphaRanker(context.Background(), andxor.PrepareTree(sample), user, k, iters))
}

// mustAlpha adapts the error-returning generic search to the legacy
// panicking wrappers (which accept only in-process data and a background
// context, so an error means caller misuse exactly as before).
func mustAlpha(res AlphaResult, err error) AlphaResult {
	if err != nil {
		panic(err)
	}
	return res
}

// LearnAlphaRanker is the α-learning search over any unified-engine backend
// (core.Prepared, andxor.PreparedTree, junction.PreparedNetwork,
// junction.PreparedChain): one generic recursive grid refinement replaces
// the former per-backend specializations. Every refinement round's
// nine-point probe grid runs as one batch through the backend's fastest
// sweep kernel, the context aborts long searches promptly, and a malformed
// user ranking (duplicate or out-of-range IDs) surfaces as an error.
func LearnAlphaRanker(ctx context.Context, r engine.Ranker, user pdb.Ranking, k, iters int) (AlphaResult, error) {
	if err := pdb.CheckRankingIDs(user, r.Len()); err != nil {
		return AlphaResult{}, fmt.Errorf("learn: invalid user ranking: %w", err)
	}
	if k <= 0 {
		k = len(user)
	}
	if iters <= 0 {
		iters = 6
	}
	evals := 0
	userTop := user.TopK(k)
	dist := func(alpha float64) (float64, error) {
		evals++
		rk, err := r.QueryRankPRFe(ctx, alpha)
		if err != nil {
			return 0, err
		}
		return rankdist.KendallTopK(userTop, rk.TopK(k), k), nil
	}
	lo, hi := 0.0, 1.0
	bestAlpha := 1.0
	bestDist, err := dist(1)
	if err != nil {
		return AlphaResult{}, err
	}
	if d0, err := dist(1e-9); err != nil {
		return AlphaResult{}, err
	} else if d0 < bestDist {
		bestAlpha, bestDist = 1e-9, d0
	}
	probes := make([]float64, 9)
	for it := 0; it < iters; it++ {
		step := (hi - lo) / 10
		if step < 1e-12 {
			break
		}
		for i := range probes {
			probes[i] = lo + float64(i+1)*step
		}
		tops, err := r.QueryTopKPRFeBatch(ctx, probes, k)
		if err != nil {
			return AlphaResult{}, err
		}
		evals += len(probes)
		bestI := 0
		bestLocal := math.Inf(1)
		for i, top := range tops {
			if d := rankdist.KendallTopK(userTop, top, k); d < bestLocal {
				bestLocal, bestI = d, i+1
			}
		}
		a := lo + float64(bestI)*step
		if bestLocal < bestDist {
			bestDist, bestAlpha = bestLocal, a
		}
		newLo := math.Max(lo, lo+float64(bestI-1)*step)
		newHi := math.Min(hi, lo+float64(bestI+1)*step)
		lo, hi = newLo, newHi
	}
	return AlphaResult{Alpha: bestAlpha, Distance: bestDist, Evaluations: evals}, nil
}

// OmegaOptions configures LearnOmega.
type OmegaOptions struct {
	// H is the number of positional-probability features (weights learned
	// for ranks 1..H). Defaults to the sample size.
	H int
	// Lambda is the L2 regularization strength. Defaults to 1e-4.
	Lambda float64
	// Iters is the number of subgradient steps. Defaults to 500.
	Iters int
}

// LearnOmega fits a PRFω(h) weight vector from the user's ranking of the
// sample. Preference pairs are all ordered pairs of the user ranking
// (tuples the user ranked higher should score higher); the optimizer
// minimizes the RankSVM objective
//
//	λ‖w‖² + (1/|P|)·Σ_{(a,b)∈P} max(0, 1 − w·(x_a − x_b))
//
// over feature vectors x_t = (Pr(r(t)=1), …, Pr(r(t)=H)). The returned
// vector plugs straight into core.PRFOmega.
func LearnOmega(sample *pdb.Dataset, user pdb.Ranking, opts OmegaOptions) []float64 {
	n := sample.Len()
	if n == 0 || len(user) < 2 {
		return nil
	}
	h := opts.H
	if h <= 0 || h > n {
		h = n
	}
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = 1e-4
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = 500
	}

	// Features: x_t[i] = Pr(r(t) = i+1) computed on the sample alone.
	rd := core.Prepare(sample).RankDistributionTrunc(h)
	feat := make([][]float64, n)
	for id := 0; id < n; id++ {
		row := make([]float64, h)
		copy(row, rd.Dist[id])
		feat[id] = row
	}

	// Difference vectors for every user-ordered pair (a above b).
	type pair struct{ a, b pdb.TupleID }
	var pairs []pair
	for i := 0; i < len(user); i++ {
		for j := i + 1; j < len(user); j++ {
			pairs = append(pairs, pair{user[i], user[j]})
		}
	}
	if len(pairs) == 0 {
		return nil
	}

	w := make([]float64, h)
	diff := make([]float64, h)
	for t := 1; t <= iters; t++ {
		// Full subgradient: λ·w minus the mean of violated differences.
		grad := make([]float64, h)
		for i := range w {
			grad[i] = lambda * w[i]
		}
		inv := 1 / float64(len(pairs))
		for _, p := range pairs {
			fa, fb := feat[p.a], feat[p.b]
			var margin float64
			for i := 0; i < h; i++ {
				diff[i] = fa[i] - fb[i]
				margin += w[i] * diff[i]
			}
			if margin < 1 {
				for i := 0; i < h; i++ {
					grad[i] -= diff[i] * inv
				}
			}
		}
		lr := 1 / (lambda * float64(t+100))
		for i := range w {
			w[i] -= lr * grad[i]
		}
	}
	return w
}

// RankWithOmega ranks a dataset with a learned weight vector (convenience
// wrapper over core.PRFOmega).
func RankWithOmega(d *pdb.Dataset, w []float64) pdb.Ranking {
	return pdb.RankByValue(core.PRFOmega(d, w))
}

// GridScanAlphaRanker evaluates the Kendall distance on a uniform α grid
// over any unified-engine backend — the exhaustive reference LearnAlpha is
// checked against, and the data series behind the Figure 7-style
// distance-vs-α curves. The monotone grid rides the backend's fastest batch
// kernel (the kinetic sweep on independent data — sort once, advance by
// crossings), and only the top-k prefixes materialize.
func GridScanAlphaRanker(ctx context.Context, r engine.Ranker, user pdb.Ranking, k, gridSize int) (alphas, dists []float64, err error) {
	if err := pdb.CheckRankingIDs(user, r.Len()); err != nil {
		return nil, nil, fmt.Errorf("learn: invalid user ranking: %w", err)
	}
	if k <= 0 {
		k = len(user)
	}
	if gridSize < 2 {
		gridSize = 2
	}
	alphas = make([]float64, gridSize)
	dists = make([]float64, gridSize)
	for i := 0; i < gridSize; i++ {
		alphas[i] = float64(i+1) / float64(gridSize)
	}
	tops, err := r.QueryTopKPRFeBatch(ctx, alphas, k)
	if err != nil {
		return nil, nil, err
	}
	userTop := user.TopK(k)
	for i, top := range tops {
		dists[i] = rankdist.KendallTopK(userTop, top, k)
	}
	return alphas, dists, nil
}

// ComboOptions configures LearnPRFeCombo.
type ComboOptions struct {
	// Omega configures the inner PRFω learning step.
	Omega OmegaOptions
	// L is the number of PRFe terms used to approximate the learned weights.
	L int
}

// LearnPRFeCombo implements the paper's two-stage recipe for learning a
// linear combination of PRFe functions (Section 5.2: "we first learn a PRFω
// function and then approximate it"): fit a weight vector with LearnOmega,
// then compress it into L complex exponentials with the Section 5.1 DFT
// pipeline. The returned terms feed core.PRFeCombo, giving O(n·L) ranking
// on arbitrarily large datasets with the learned preference.
func LearnPRFeCombo(sample *pdb.Dataset, user pdb.Ranking, opts ComboOptions) []core.ExpTerm {
	w := LearnOmega(sample, user, opts.Omega)
	if len(w) == 0 {
		return nil
	}
	l := opts.L
	if l <= 0 {
		l = 20
	}
	terms := dftapprox.Approximate(func(i int) float64 {
		if i >= 0 && i < len(w) {
			return w[i]
		}
		return 0
	}, len(w), dftapprox.DefaultOptions(l))
	rankTerms := dftapprox.TermsForRankWeights(terms)
	out := make([]core.ExpTerm, len(rankTerms))
	for i, t := range rankTerms {
		out[i] = core.ExpTerm{U: t.U, Alpha: t.Alpha}
	}
	return out
}

// RankWithCombo ranks a dataset with learned PRFe-combination terms.
func RankWithCombo(d *pdb.Dataset, terms []core.ExpTerm) pdb.Ranking {
	return pdb.RankByValue(core.RealParts(core.PRFeCombo(d, terms)))
}
