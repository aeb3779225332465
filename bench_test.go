// Benchmarks: one per reproduced table/figure (exercising that experiment's
// computational kernel at a fixed size) plus micro-benchmarks for the core
// algorithm kernels. The full table/figure reports are produced by
// cmd/experiments; these benches track the cost of the underlying machinery.
package prf_test

import (
	"context"
	"math/rand"
	"net/http"
	"testing"

	prf "repro"
	"repro/internal/andxor"
	"repro/internal/benchwork"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
	"repro/internal/engine"
	"repro/internal/poly"
	"repro/internal/serve"
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

// --- Prepared-evaluation engine: repeated-query workloads (BENCH_1). ---
//
// The workload bodies live in internal/benchwork and are shared with
// cmd/bench, so the BENCH_N.json trajectory measures exactly these benches.

// BenchmarkPreparedVsOneShot measures an α-spectrum value sweep (PRFeLog at
// 16 grid points, the Figure 11 kernel) at n=10⁴. The one-shot path
// rebuilds and re-sorts a view per query; the prepared path sorts once and
// then runs pure scans; the parallel path additionally fans the sweep across
// GOMAXPROCS goroutines. "ranked-*" are the same sweeps producing full
// rankings (adds an O(n log n) sort-by-value per grid point to both paths).
func BenchmarkPreparedVsOneShot(b *testing.B) {
	d := benchwork.Dataset(10000)
	alphas, calphas := benchwork.Grid(16)
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.SpectrumOneShot(d, calphas)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.SpectrumPrepared(d, calphas)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.SpectrumParallel(d, calphas)
		}
	})
	b.Run("ranked-oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.RankedOneShot(d, alphas)
		}
	})
	b.Run("ranked-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.RankedPrepared(d, alphas)
		}
	})
	b.Run("ranked-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.RankedParallel(d, alphas)
		}
	})
}

// BenchmarkPRFeComboFused compares the pre-fusion multi-pass PRFeCombo (one
// scan of the data per term) against the fused single-pass kernel and the
// parallel-by-term variant, at n=10⁴ with a 20-term PT(1000) approximation.
func BenchmarkPRFeComboFused(b *testing.B) {
	d := benchwork.Dataset(10000)
	terms := benchwork.Terms(20)
	v := prf.Prepare(d)
	b.Run("multipass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ComboMultiPass(v, terms)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ComboFused(v, terms)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ComboParallel(v, terms)
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ComboOneShot(d, terms)
		}
	})
}

// BenchmarkParallelSpectrum isolates the ranked-sweep strategies over one
// shared prepared view, 32-point sweep: serial re-sort per α, per-α
// parallel fan-out, and the kinetic sweep (sort once, advance by
// Theorem 4 crossings — what QueryRankPRFeBatch picks for a monotone grid).
func BenchmarkParallelSpectrum(b *testing.B) {
	d := benchwork.Dataset(10000)
	v := prf.Prepare(d)
	alphas, _ := benchwork.Grid(32)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, a := range alphas {
				_ = v.RankPRFe(a)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		// Descending, so the dispatcher takes the per-α parallel arm.
		desc := make([]float64, len(alphas))
		for i, a := range alphas {
			desc[len(alphas)-1-i] = a
		}
		for i := 0; i < b.N; i++ {
			_, _ = v.QueryRankPRFeBatch(context.Background(), desc)
		}
	})
	b.Run("kinetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = v.RankPRFeSweep(context.Background(), alphas)
		}
	})
}

// BenchmarkCrossingPoint compares the Theorem 4 crossing-point solvers on a
// fixed mixed-span pair set: the incremental Newton/secant solver with the
// hoisted α-independent terms vs the original full-pass bisection.
func BenchmarkCrossingPoint(b *testing.B) {
	d := benchwork.Dataset(10000)
	v := prf.Prepare(d)
	pairs := benchwork.CrossingPairs(10000, 64)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.CrossingIncremental(v, pairs)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.CrossingReference(v, pairs)
		}
	})
}

// BenchmarkCorrelatedPRFe covers the correlated-data trajectory: PRFe on
// and/xor trees (x-tuple and deep-correlation shapes) and the Markov-chain
// partial-sum DP.
func BenchmarkCorrelatedPRFe(b *testing.B) {
	xorTree := benchwork.XTupleTree(10000)
	deepTree := benchwork.DeepTree(10000)
	chain := benchwork.MarkovChain(200)
	b.Run("andxor-xor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.TreePRFe(xorTree)
		}
	})
	b.Run("andxor-high", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.TreePRFe(deepTree)
		}
	})
	b.Run("junction-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ChainPRFe(chain)
		}
	})
	b.Run("junction-chain-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ChainPRFeDP(chain)
		}
	})
}

// BenchmarkCorrelatedPrepared covers the PR 3 prepared engine for correlated
// data: α sweeps and term combinations on and/xor trees via PreparedTree
// (sort + evaluation state amortized), the Markov-chain product-tree sweep,
// and the junction-tree prepared path (build + DP once, fold per α).
func BenchmarkCorrelatedPrepared(b *testing.B) {
	xorTree := benchwork.XTupleTree(10000)
	preparedXor := benchwork.PrepareTree(xorTree)
	chain := benchwork.MarkovChain(200)
	net := benchwork.ChainNetwork(benchwork.MarkovChain(100))
	_, calphas := benchwork.Grid(16)
	_, netCalphas := benchwork.Grid(8)
	terms := benchwork.Terms(20)
	b.Run("andxor-sweep-oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.TreeSweepOneShot(xorTree, calphas)
		}
	})
	b.Run("andxor-sweep-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.TreeSweepPrepared(xorTree, calphas)
		}
	})
	b.Run("andxor-combo-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.TreeComboPrepared(preparedXor, terms)
		}
	})
	b.Run("chain-sweep-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ChainSweepPrepared(chain, calphas)
		}
	})
	b.Run("network-sweep-oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.NetworkSweepOneShot(net, netCalphas)
		}
	})
	b.Run("network-sweep-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.NetworkSweepPrepared(net, netCalphas)
		}
	})
}

// BenchmarkDashboard measures the PR 5 engine-level result cache on the
// repeated-dashboard workload: one op is a full dashboard refresh (the
// panel query mix plus a ranked α sweep), uncached vs answered from the
// canonical-query cache (warmed; steady-state hits).
func BenchmarkDashboard(b *testing.B) {
	e := benchwork.NewEngine(prf.Prepare(benchwork.Dataset(10000)))
	qs := benchwork.DashboardQueries(10)
	sweep := benchwork.DashboardSweep(16)
	ce := benchwork.NewCachedEngine(e, 0)
	benchwork.CachedDashboard(ce, qs, sweep) // warm
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.EngineDashboard(e, qs, sweep)
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.CachedDashboard(ce, qs, sweep)
		}
	})
}

// BenchmarkServeRoundTrip measures full HTTP round trips through the
// internal/serve front end (PR 5): a PRFe top-k panel against an uncached
// and a cached (warmed) dataset.
func BenchmarkServeRoundTrip(b *testing.B) {
	v := prf.Prepare(benchwork.Dataset(10000))
	client := &http.Client{}
	body := benchwork.ServeRankBody("bench", 0.95, 10)
	uncached := benchwork.StartServeFixtureOpts(map[string]*engine.Engine{"bench": benchwork.NewEngine(v)},
		serve.Options{CacheCapacity: -1, ByteCacheCapacity: -1})
	defer uncached.Close()
	cached := benchwork.StartServeFixture(map[string]*engine.Engine{"bench": benchwork.NewEngine(v)}, 0)
	defer cached.Close()
	benchwork.ServeRoundTrip(client, cached.URL+"/rank", body) // warm
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ServeRoundTrip(client, uncached.URL+"/rank", body)
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchwork.ServeRoundTrip(client, cached.URL+"/rank", body)
		}
	})
}

// BenchmarkExactSpectrum measures the exact kinetic spectrum enumeration
// (every crossing event popped and counted) against the sampled grid count
// on a dataset small enough for the full event walk.
func BenchmarkExactSpectrum(b *testing.B) {
	d := benchwork.Dataset(300)
	v := prf.Prepare(d)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = v.SpectrumSize()
		}
	})
	b.Run("grid64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = v.SpectrumSizeGrid(64)
		}
	})
}

// Local aliases keeping the poly ablation bench self-contained.
type polyT = poly.Poly

func polyMultiProduct(ps []polyT) polyT      { return poly.MultiProduct(ps) }
func polyMultiProductNaive(ps []polyT) polyT { return poly.MultiProductNaive(ps) }
