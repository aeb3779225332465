// Benchmarks: one per reproduced table/figure (exercising that experiment's
// computational kernel at a fixed size), micro-benchmarks and ablations for
// the core algorithm kernels, and BenchmarkSuite, the repeated-query suite
// cmd/bench records. The full table/figure reports are produced by
// cmd/experiments; these benches track the cost of the underlying machinery.
package prf_test

import (
	"math/rand"
	"testing"

	prf "repro"
	"repro/internal/andxor"
	"repro/internal/benchwork"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
	"repro/internal/poly"
)

// --- Table 1: the five baseline semantics on one dataset. ---

func BenchmarkTable1RankingFunctions(b *testing.B) {
	d := datagen.IIPLike(5000, 1)
	d.SortByScore()
	k := 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.TopK(prf.EScore(d), k)
		_ = prf.TopK(rankQ(b, prf.EngineFor(d), prf.Query{Metric: prf.MetricPTh, H: k}).Values, k)
		_, _ = prf.URank(d, k)
		_ = prf.ERankRanking(prf.ERank(d)).TopK(k)
		_, _, _ = prf.UTopK(d, k)
	}
}

// --- Figure 4: the four DFT adaptation variants. ---

func BenchmarkFigure4DFTAdaptations(b *testing.B) {
	omega := dftapprox.Step(1000)
	for i := 0; i < b.N; i++ {
		for _, opt := range dftapprox.VariantOptions(20) {
			_ = dftapprox.Approximate(omega, 1000, opt)
		}
	}
}

// --- Figure 5: approximating the three weight-function shapes. ---

func BenchmarkFigure5ApproxCoefficients(b *testing.B) {
	n := 1000
	funcs := []func(int) float64{
		dftapprox.Step(n), dftapprox.LinearDecay(n), dftapprox.Smooth(n),
	}
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			_ = dftapprox.Approximate(f, n, dftapprox.DefaultOptions(50))
		}
	}
}

// --- Figure 6: PRFe curves over an α grid. ---

func BenchmarkFigure6PRFeCurves(b *testing.B) {
	d, _ := prf.NewDataset(
		[]float64{100, 80, 50, 30}, []float64{0.4, 0.6, 0.5, 0.9})
	alphas := make([]float64, 100)
	for i := range alphas {
		alphas[i] = float64(i+1) / 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.PRFeCurve(d, alphas)
	}
}

// --- Figure 7: the PRFe spectrum sweep against one reference ranking. ---

func BenchmarkFigure7PRFeSpectrum(b *testing.B) {
	d := datagen.IIPLike(5000, 2)
	d.SortByScore()
	ref := prf.TopK(rankQ(b, prf.EngineFor(d), prf.Query{Metric: prf.MetricPTh, H: 100}).Values, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
			r := prfeRanking(b, prf.EngineFor(d), alpha)
			_ = prf.KendallTopK(r.TopK(100), ref, 100)
		}
	}
}

// --- Figure 8: PT(h) by a 20-term PRFe combination. ---

func BenchmarkFigure8ApproxPTh(b *testing.B) {
	d := datagen.IIPLike(10000, 3)
	d.SortByScore()
	terms := prf.ApproxPRFeTerms(
		prf.ApproximateWeights(prf.StepWeights(1000), 1000, prf.DefaultApproxOptions(20)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combo := rankQ(b, prf.EngineFor(d), prf.Query{Metric: prf.MetricPRFeCombo, Terms: terms}).Complex
		_ = prf.RankByValue(prf.RealParts(combo))
	}
}

// --- Figure 9: learning α from a sample. ---

func BenchmarkFigure9Learning(b *testing.B) {
	d := datagen.IIPLike(500, 4)
	user := prfeRanking(b, prf.EngineFor(d), 0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.LearnAlpha(d, user, 100, 8)
	}
}

// --- Figure 10: correlation-aware vs independence-assuming PRFe. ---

func BenchmarkFigure10Correlations(b *testing.B) {
	tree, err := datagen.SynMED(2000, 5)
	if err != nil {
		b.Fatal(err)
	}
	indep := tree.Dataset()
	indep.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aware := prfeRanking(b, prf.EngineForTree(tree), 0.9)
		naive := prfeRanking(b, prf.EngineFor(indep), 0.9)
		_ = prf.KendallTopK(aware.TopK(100), naive.TopK(100), 100)
	}
}

// --- Figure 11: the individual timing kernels. ---

func BenchmarkFigure11PRFe100k(b *testing.B) {
	d := datagen.IIPLike(100000, 6)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.PRFeLog(d, complex(0.95, 0))
	}
}

func BenchmarkFigure11PTh100k(b *testing.B) {
	d := datagen.IIPLike(100000, 6)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankQ(b, prf.EngineFor(d), prf.Query{Metric: prf.MetricPTh, H: 100})
	}
}

func BenchmarkFigure11URank100k(b *testing.B) {
	d := datagen.IIPLike(100000, 6)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = prf.URank(d, 100)
	}
}

func BenchmarkFigure11ERank100k(b *testing.B) {
	d := datagen.IIPLike(100000, 6)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.ERank(d)
	}
}

func BenchmarkFigure11TreePRFe20k(b *testing.B) {
	tree, err := datagen.SynHIGH(20000, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankQ(b, prf.EngineForTree(tree), prf.Query{Metric: prf.MetricPRFe, Alpha: 0.95})
	}
}

func BenchmarkFigure11TreePTh(b *testing.B) {
	tree, err := datagen.SynXOR(1000, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankQ(b, prf.EngineForTree(tree), prf.Query{Metric: prf.MetricPTh, H: 100})
	}
}

// --- Table 3: incremental vs naive tree PRFe (the headline asymptotic win).

func BenchmarkTable3IncrementalTreePRFe(b *testing.B) {
	tree, err := datagen.SynMED(2000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankQ(b, prf.EngineForTree(tree), prf.Query{Metric: prf.MetricPRFe, Alpha: 0.9})
	}
}

func BenchmarkTable3NaiveTreePRFe(b *testing.B) {
	tree, err := datagen.SynMED(2000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = treePRFeNaive(tree)
	}
}

// --- Core kernels. ---

func BenchmarkRankDistribution2k(b *testing.B) {
	d := datagen.SynIND(2000, 10)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.RankDistribution(d)
	}
}

func BenchmarkJunctionRankDistribution(b *testing.B) {
	// A 14-variable chain network: treewidth 1.
	scores := make([]float64, 14)
	var factors []prf.MarkovFactor
	for v := 0; v < 14; v++ {
		scores[v] = float64(14 - v)
		factors = append(factors, prf.MarkovFactor{Vars: []int{v}, Table: []float64{0.5, 0.5}})
		if v+1 < 14 {
			factors = append(factors, prf.MarkovFactor{Vars: []int{v, v + 1}, Table: []float64{2, 1, 1, 2}})
		}
	}
	net, err := prf.NewMarkovNetwork(scores, factors)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prf.NetworkRankDistribution(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKendallTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	k := 1000
	a := make(prf.Ranking, k)
	c := make(prf.Ranking, k)
	pa, pc := rng.Perm(3*k), rng.Perm(3*k)
	for i := 0; i < k; i++ {
		a[i] = prf.TupleID(pa[i])
		c[i] = prf.TupleID(pc[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.KendallTopK(a, c, k)
	}
}

func BenchmarkUTopK100k(b *testing.B) {
	d := datagen.IIPLike(100000, 12)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = prf.UTopK(d, 100)
	}
}

func BenchmarkKSelection(b *testing.B) {
	d := datagen.IIPLike(10000, 13)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = prf.KSelection(d, 100)
	}
}

// treePRFeNaive calls the O(n²) re-evaluation baseline (not part of the
// public facade; the ablation compares it against Algorithm 3).
func treePRFeNaive(t *prf.Tree) []complex128 {
	return andxor.PRFeValuesNaive(t, complex(0.9, 0))
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// Divide-and-conquer multi-product vs naive left-to-right (Appendix B.1).
func BenchmarkMultiProductDivideConquer(b *testing.B) {
	ps := make([]polyT, 512)
	for i := range ps {
		ps[i] = polyT{1, 0.5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = polyMultiProduct(ps)
	}
}

func BenchmarkMultiProductNaive(b *testing.B) {
	ps := make([]polyT, 512)
	for i := range ps {
		ps[i] = polyT{1, 0.5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = polyMultiProductNaive(ps)
	}
}

// Log-space PRFe vs the direct complex product (the numerical-robustness
// path costs within a small factor of the raw one).
func BenchmarkPRFeLog100k(b *testing.B) {
	d := datagen.IIPLike(100000, 21)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prf.PRFeLog(d, complex(0.5, 0))
	}
}

func BenchmarkPRFeDirect100k(b *testing.B) {
	d := datagen.IIPLike(100000, 21)
	d.SortByScore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankQ(b, prf.EngineFor(d), prf.Query{Metric: prf.MetricPRFe, Alpha: 0.5})
	}
}

// Specialized §4.4 uncertain-scores sweep vs the generic tree algorithm.
func BenchmarkUncertainScoresFast(b *testing.B) {
	groups := benchGroups(800)
	omega := func(_ prf.Tuple, rank int) float64 { return 1 / float64(rank) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prf.PRFUncertainScores(groups, omega); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUncertainScoresTree(b *testing.B) {
	groups := benchGroups(800)
	omega := func(_ prf.Tuple, rank int) float64 { return 1 / float64(rank) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := andxor.PRFUncertain(groups, omega); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGroups(n int) [][]prf.Alternative {
	rng := rand.New(rand.NewSource(5))
	groups := make([][]prf.Alternative, n)
	for g := range groups {
		na := 1 + rng.Intn(3)
		alts := make([]prf.Alternative, na)
		rem := rng.Float64()
		for i := range alts {
			p := rem / float64(na)
			alts[i] = prf.Alternative{Score: rng.Float64() * 1000, Prob: p}
		}
		groups[g] = alts
	}
	return groups
}

// --- The repeated-query suite (BENCH_N.json). ---

// BenchmarkSuite runs every arm of the internal/benchwork registry at the
// full preset: the arms cmd/bench measures into BENCH_N.json, under the
// same names.
func BenchmarkSuite(b *testing.B) {
	s := benchwork.New(benchwork.Full)
	defer s.Close()
	for _, a := range s.Arms {
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Op()
			}
		})
	}
}

// Local aliases keeping the poly ablation bench self-contained.
type polyT = poly.Poly

func polyMultiProduct(ps []polyT) polyT      { return poly.MultiProduct(ps) }
func polyMultiProductNaive(ps []polyT) polyT { return poly.MultiProductNaive(ps) }
