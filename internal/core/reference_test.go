package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/coreref"
	"repro/internal/pdb"
)

// The fast kernels against the pre-optimization references in
// internal/coreref. These tests live in the external test package because
// coreref imports core.

// TestPRFeComboFusedMatchesMultiPass: the fused single-pass PRFeCombo and
// the per-term multi-scan reference are both bit-for-bit the pre-Prepared
// one-shot evaluation.
func TestPRFeComboFusedMatchesMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(200)
		l := 1 + rng.Intn(40)
		d := core.GnarlyDataset(rng, n+1)
		terms := core.RandTerms(rng, l)
		v := core.Prepare(d)

		want := core.RefPRFeCombo(d, terms)
		core.EqualComplexes(t, "PRFeCombo(fused)", v.PRFeCombo(terms), want, 0)
		core.EqualComplexes(t, "coreref.PRFeComboMultiPass", coreref.PRFeComboMultiPass(v, terms), want, 0)
	}
}

// TestSpectrumSizeExactVsBruteForce verifies the event-counting spectrum
// against first principles: enumerate every pairwise crossing point with the
// coreref bisection, evaluate the reference ranking between consecutive
// crossings, and count distinct rankings.
func TestSpectrumSizeExactVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{2, 3, 5, 8, 12} {
		for trial := 0; trial < 8; trial++ {
			d := core.GnarlyDataset(rng, n)
			v := core.Prepare(d)

			var betas []float64
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if v.Prob(i) == v.Prob(j) {
						continue // tangency at α=1 only; not an interior crossing
					}
					if beta, ok := coreref.CrossingPoint(v, i, j); ok && beta > core.SpectrumEps {
						// SpectrumSize's documented domain starts at 1e-9;
						// crossings below it (tiny-probability artifacts)
						// are outside both counts.
						betas = append(betas, beta)
					}
				}
			}
			sort.Float64s(betas)
			// Sample a probe α inside every inter-crossing cell of (0, 1).
			probes := []float64{}
			prev := core.SpectrumEps
			for _, b := range betas {
				if b-prev > 1e-12 {
					probes = append(probes, prev+(b-prev)/2)
				}
				prev = b
			}
			probes = append(probes, prev+(1-prev)/2)
			count := 0
			var last pdb.Ranking
			for _, alpha := range probes {
				r := v.RankPRFe(alpha)
				if last == nil || !core.SameRanking(last, r) {
					count++
					last = r
				}
			}
			if got := v.SpectrumSize(); got != count {
				t.Fatalf("n=%d trial=%d: exact spectrum %d, brute force %d (crossings at %v)",
					n, trial, got, count, betas)
			}
		}
	}
}

// TestCrossingPointMatchesReference pins the incremental Newton solver to
// the plain-bisection reference across random pairs, including long spans
// that trigger the series evaluator inside sweeps.
func TestCrossingPointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(864))
	for _, n := range []int{10, 100, 800} {
		d := core.GnarlyDataset(rng, n)
		v := core.Prepare(d)
		for trial := 0; trial < 300; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if v.Prob(min(i, j)) == v.Prob(max(i, j)) {
				continue // semantics differ deliberately: tangency at α=1
			}
			b1, ok1 := v.CrossingPoint(i, j)
			b2, ok2 := coreref.CrossingPoint(v, i, j)
			if ok1 != ok2 {
				t.Fatalf("n=%d pair (%d,%d): incremental ok=%v reference ok=%v", n, i, j, ok1, ok2)
			}
			if ok1 && math.Abs(b1-b2) > 1e-9 {
				t.Fatalf("n=%d pair (%d,%d): crossing %v vs reference %v", n, i, j, b1, b2)
			}
		}
	}
}
