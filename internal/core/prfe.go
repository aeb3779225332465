package core

import (
	"math/cmplx"

	"repro/internal/pdb"
)

// PRFe evaluates Υ_α(t) = F^i(α) = (∏_{l<i}(1−p_l+p_l·α))·p_i·α for every
// tuple with a single scan over the score-sorted dataset (Section 4.3,
// Equation 3): O(n log n) including the sort, O(n) when pre-sorted.
//
// α may be any complex number; the paper uses real 0 < α ≤ 1 for direct
// ranking and complex α for linear combinations (Section 5.1). For large n
// the running product underflows float64 — use PRFeLog for ranking at scale.
func PRFe(d *pdb.Dataset, alpha complex128) []complex128 {
	return Prepare(d).PRFe(alpha)
}

// PRFeLog evaluates log|Υ_α(t)| for every tuple, the numerically robust form
// of PRFe for ranking: because ranking only needs the order of |Υ|, summing
// log-magnitudes avoids the underflow of the direct product (a dataset with
// n = 10⁶ and α = 0.5 drives ∏(1−p+pα) far below the float64 range).
// Tuples with Υ = 0 (p = 0, α = 0, or a preceding certain tuple with
// 1−p+pα = 0) get -Inf. Works for real and complex α alike.
func PRFeLog(d *pdb.Dataset, alpha complex128) []float64 {
	return Prepare(d).PRFeLog(alpha)
}

// ExpTerm is one term u·αⁱ of an exponential-sum weight function
// ω(i) ≈ Σ_l u_l·α_lⁱ (Section 5.1). The dftapprox package produces these.
type ExpTerm struct {
	// U is the coefficient of the term.
	U complex128
	// Alpha is the base of the term; |Alpha| ≤ 1 for sensible rankings.
	Alpha complex128
}

// PRFeCombo evaluates Υ(t) = Σ_l u_l·Υ_{α_l}(t), the linear combination of
// PRFe functions that approximates an arbitrary PRFω function, with the
// fused single-pass kernel: O(n·L) arithmetic over one scan of the data.
// The returned values are the complex Υ; for a real ω approximated with
// conjugate-closed DFT terms the imaginary parts are numerical noise, so
// rank by real part (see RealParts).
func PRFeCombo(d *pdb.Dataset, terms []ExpTerm) []complex128 {
	return Prepare(d).PRFeCombo(terms)
}

// RealParts extracts the real components of complex ranking values.
func RealParts(vals []complex128) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = real(v)
	}
	return out
}

// AbsParts extracts the magnitudes of complex ranking values (the paper's
// top-k query returns the k tuples with the highest |Υω|).
func AbsParts(vals []complex128) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// RankPRFe returns the full PRFe(α) ranking for real α ∈ [0,1] using the
// log-space evaluation, the recommended entry point for plain PRFe ranking.
func RankPRFe(d *pdb.Dataset, alpha float64) pdb.Ranking {
	return Prepare(d).RankPRFe(alpha)
}
