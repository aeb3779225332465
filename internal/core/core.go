// Package core implements the paper's parameterized ranking functions (PRF,
// PRFω(h), PRFe(α)) and the generating-function algorithms of Section 4.1
// for tuple-independent datasets:
//
//   - rank distributions Pr(r(t)=j) for all tuples in O(n²) (Algorithm 1,
//     IND-PRF-RANK), or O(n·h) truncated to the first h positions;
//   - Υω(t) for an arbitrary weight function ω in O(n²) time and O(n) space;
//   - PRFω(h) in O(n·h + n log n);
//   - PRFe(α) in O(n log n) — O(n) when pre-sorted — for real or complex α,
//     with a log-space path that stays exact in ranking order down to
//     n = 10⁶ and beyond (Section 4.3, Equation 3);
//   - linear combinations of PRFe functions (Section 5.1), the evaluation
//     backend for the DFT approximation of arbitrary PRFω functions.
//
// All algorithms run on a Prepared view — an immutable, score-sorted
// struct-of-arrays snapshot of the dataset built once with Prepare. The
// package-level one-shot functions are thin prepare-then-call wrappers kept
// for convenience and backward compatibility; repeated-query workloads
// (α sweeps, multi-term combinations, batch top-k) should Prepare once and
// call the methods, which never re-clone or re-sort.
//
// Dense α-spectrum workloads additionally ride the kinetic spectrum engine
// (sweep.go): per Theorem 4 the PRFe ranking evolves along α purely by
// adjacent transpositions, so a Sweep maintains it incrementally — an event
// queue of pair-crossing times for the exact spectrum enumeration
// (SpectrumSize), and insertion-certified grid stepping behind
// QueryRankPRFeBatch for monotone α grids — instead of re-sorting at every grid
// point. Top-k queries first try the certified score-prefix selector
// (topk.go), which reads only the prefix of the score order that can hold
// the answer; grids whose prefixes grow past n/2 fall back to the sweep.
//
// Correlated datasets are handled by the andxor and junction packages; this
// package is the independent-tuples fast path that the paper's Figure 11
// timings exercise. Attribute (score) uncertainty reduces to x-tuples and
// lives in the andxor package (Section 4.4).
package core

import (
	"repro/internal/pdb"
)

// WeightFunc is the paper's ω: it maps a tuple and a 1-based rank to a real
// weight. Implementations must be O(1) per call (the algorithms assume so).
type WeightFunc func(t pdb.Tuple, rank int) float64

// RankDistribution computes the full positional-probability matrix for a
// tuple-independent dataset with Algorithm 1: the generating function
// F^i(x) = (∏_{t∈T_{i−1}} (1−p+px)) · pᵢ·x is expanded incrementally, so
// each tuple costs O(i) and the whole matrix O(n²) time and O(n²) space.
// Use RankDistributionTrunc when only the first h positions matter.
func RankDistribution(d *pdb.Dataset) *pdb.RankDistribution {
	return Prepare(d).RankDistribution()
}

// RankDistributionTrunc computes Pr(r(t)=j) for j = 1..h only, in O(n·h)
// time and O(n·h) space.
func RankDistributionTrunc(d *pdb.Dataset, h int) *pdb.RankDistribution {
	return Prepare(d).RankDistributionTrunc(h)
}

// advance multiplies the coefficient vector g by (1−p+p·x), truncating to
// maxLen coefficients. It mutates and returns g.
func advance(g []float64, p float64, maxLen int) []float64 {
	q := 1 - p
	if len(g) < maxLen {
		g = append(g, 0)
	}
	for j := len(g) - 1; j >= 1; j-- {
		g[j] = g[j]*q + g[j-1]*p
	}
	g[0] *= q
	return g
}

// PRF computes Υω(t) for every tuple under an arbitrary weight function, in
// O(n²) time but only O(n) space: the generating-function coefficients are
// folded into Υ on the fly instead of being stored (Equation 1).
// The result is indexed by TupleID.
func PRF(d *pdb.Dataset, omega WeightFunc) []float64 {
	return Prepare(d).PRF(omega)
}

// PRFOmega computes Υ for the weight vector w, where w[j] is the weight of
// rank j+1 and all ranks beyond len(w) weigh zero — the PRFω(h) family with
// h = len(w). Runs in O(n·h + n log n) time and O(h) extra space.
func PRFOmega(d *pdb.Dataset, w []float64) []float64 {
	return Prepare(d).PRFOmega(w)
}

// PTWeights returns the PT(h) weight vector: ω(i)=1 for i ≤ h (Probabilistic
// Threshold top-k / Global-top-k as a PRFω special case).
func PTWeights(h int) []float64 {
	w := make([]float64, h)
	for i := range w {
		w[i] = 1
	}
	return w
}

// PTh computes Pr(r(t) ≤ h) for every tuple — the PT(h) ranking function —
// in O(n·h) time.
func PTh(d *pdb.Dataset, h int) []float64 {
	return Prepare(d).PTh(h)
}

// TopK ranks all tuples by non-increasing value and returns the first k IDs.
func TopK(values []float64, k int) pdb.Ranking {
	return pdb.RankByValue(values).TopK(k)
}

// RankPositionProbabilities returns, for each tuple, Pr(r(t)=j) for
// j = 1..k as a dense n×k matrix indexed by TupleID. This is the input the
// U-Rank baseline needs; it matches the O(nk + n log n) bound of Yi et al.
// cited in Section 4.1.
func RankPositionProbabilities(d *pdb.Dataset, k int) [][]float64 {
	rd := RankDistributionTrunc(d, k)
	out := make([][]float64, d.Len())
	flat := make([]float64, d.Len()*k)
	for id := range out {
		row := flat[id*k : (id+1)*k : (id+1)*k]
		copy(row, rd.Dist[id])
		out[id] = row
	}
	return out
}
