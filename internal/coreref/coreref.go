// Package coreref holds the pre-optimization reference kernels that
// internal/core's fast paths are certified and benchmarked against: the
// one-scan-per-term PRFe combination behind the fused Prepared.PRFeCombo,
// and the plain-bisection crossing finder behind Prepared.CrossingPoint.
// No query path uses them; core's external tests and the bench registry
// (internal/benchwork, arms combo/multipass and crossing/reference) do.
package coreref

import (
	"math"

	"repro/internal/core"
	"repro/internal/exact"
)

// PRFeComboMultiPass is the pre-fusion implementation of
// Prepared.PRFeCombo: one full scan of the data per term, accumulating into
// the output between scans. Bit-for-bit equal to the fused kernel.
func PRFeComboMultiPass(v *core.Prepared, terms []core.ExpTerm) []complex128 {
	n := v.Len()
	out := make([]complex128, n)
	for _, term := range terms {
		prod := complex(1, 0)
		for i := 0; i < n; i++ {
			p := complex(v.Prob(i), 0)
			out[v.ID(i)] += term.U * prod * p * term.Alpha
			prod *= 1 - p + p*term.Alpha
		}
	}
	return out
}

// crossEps is the lower end of the crossing bracket, core's own.
const crossEps = 1e-12

// CrossingPoint is the pre-optimization crossing finder for the tuples at
// sorted positions i and j of v: plain bisection where every probe
// recomputes the full O(j−i) log-sum including the α-independent
// log(p_j)−log(p_i). Prepared.CrossingPoint is ~14× faster on the same
// contract.
func CrossingPoint(v *core.Prepared, i, j int) (float64, bool) {
	if i == j {
		return 0, false
	}
	if i > j {
		i, j = j, i
	}
	pi, pj := v.Prob(i), v.Prob(j)
	if pi <= 0 || pj <= 0 {
		return 0, false
	}
	logRho := func(alpha float64) float64 {
		r := math.Log(pj) - math.Log(pi)
		for l := i; l < j; l++ {
			f := 1 - v.Prob(l) + v.Prob(l)*alpha
			if f <= 0 {
				return math.Inf(-1)
			}
			r += math.Log(f)
		}
		return r
	}
	lo, hi := crossEps, 1.0
	flo, fhi := logRho(lo), logRho(hi)
	if exact.Same(flo, fhi) || (flo < 0) == (fhi < 0) {
		return 0, false // same sign at both ends: no swap in (0,1)
	}
	for iter := 0; iter < 200 && hi-lo > 1e-14; iter++ {
		mid := (lo + hi) / 2
		if (logRho(mid) < 0) == (flo < 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}
