package prf_test

import (
	"context"
	"fmt"

	prf "repro"
)

// The paper's Example 7: four tuples trading score against probability;
// PRFe(α) spans the spectrum between the two extreme orders.
func ExampleEngine_prfeSpectrum() {
	d, _ := prf.NewDataset(
		[]float64{100, 80, 50, 30},
		[]float64{0.4, 0.6, 0.5, 0.9},
	)
	eng := prf.EngineFor(d)
	for _, alpha := range []float64{0.5, 1.0} { // balanced, then by probability
		res, _ := eng.Rank(context.Background(), prf.Query{
			Metric: prf.MetricPRFe, Alpha: alpha, Output: prf.OutputRanking,
		})
		fmt.Println(res.Ranking)
	}
	// Output:
	// [1 0 3 2]
	// [3 1 2 0]
}

// Rank distributions are exact positional probabilities computed by the
// generating-function Algorithm 1 (the paper's Example 1).
func ExampleRankDistribution() {
	d, _ := prf.NewDataset([]float64{30, 20, 10}, []float64{0.5, 0.6, 0.4})
	rd := prf.RankDistribution(d)
	fmt.Printf("%.2f %.2f %.2f\n", rd.At(2, 1), rd.At(2, 2), rd.At(2, 3))
	// Output:
	// 0.08 0.20 0.12
}

// PRFe evaluates the generating function at the point α (Example 5).
func ExampleEngine_prfeValues() {
	d, _ := prf.NewDataset([]float64{30, 20, 10}, []float64{0.5, 0.6, 0.4})
	res, _ := prf.EngineFor(d).Rank(context.Background(), prf.Query{Metric: prf.MetricPRFe, Alpha: 0.6})
	fmt.Printf("%.5f\n", real(res.Complex[2]))
	// Output:
	// 0.14592
}

// And/xor trees capture mutual exclusion; Pr(r(t4)=3) on the Figure 1
// traffic database is the paper's Example 4.
func ExampleTreeRankDistribution() {
	tree, _ := prf.NewTree(prf.NewAnd(
		prf.NewXor([]float64{0.4}, prf.NewLeaf(120)),
		prf.NewXor([]float64{0.7, 0.3}, prf.NewLeaf(130), prf.NewLeaf(80)),
		prf.NewXor([]float64{0.4, 0.6}, prf.NewLeaf(95), prf.NewLeaf(110)),
		prf.NewXor([]float64{1.0}, prf.NewLeaf(105)),
	))
	rd := prf.TreeRankDistribution(tree)
	fmt.Printf("%.3f\n", rd.At(3, 3))
	// Output:
	// 0.216
}

// U-Top returns the most probable top-k set together with its probability.
func ExampleUTopK() {
	d, _ := prf.NewDataset([]float64{10, 5}, []float64{0.9, 0.8})
	set, p, _ := prf.UTopK(d, 1)
	fmt.Println(set, p)
	// Output:
	// [0] 0.9
}

// The consensus top-k (Theorem 2) is PT(k)'s answer; its expected symmetric
// difference from the random world's true top-k is minimal.
func ExampleConsensusTopK() {
	d, _ := prf.NewDataset([]float64{10, 8, 6}, []float64{0.9, 0.2, 0.9})
	tau := prf.ConsensusTopK(d, 2)
	fmt.Println(tau)
	fmt.Printf("%.3f\n", prf.ExpectedSymDiff(d, tau))
	// Output:
	// [0 2]
	// 0.562
}

// LearnAlpha recovers the PRFe parameter from a user-ranked sample.
func ExampleLearnAlpha() {
	scores := make([]float64, 200)
	probs := make([]float64, 200)
	for i := range scores {
		scores[i] = float64(200 - i)
		probs[i] = float64((i*37)%97)/100 + 0.01
	}
	d, _ := prf.NewDataset(scores, probs)
	user, _ := prf.EngineFor(d).Rank(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alpha: 0.8, Output: prf.OutputRanking,
	})
	res := prf.LearnAlpha(d, user.Ranking, 50, 8)
	fmt.Printf("distance %.4f\n", res.Distance)
	// Output:
	// distance 0.0000
}

// KendallTopK is the paper's normalized top-k distance: 0 for identical
// answers, 1 for disjoint ones.
func ExampleKendallTopK() {
	a := prf.Ranking{1, 2, 3}
	b := prf.Ranking{3, 2, 1}
	fmt.Printf("%.4f %.4f\n", prf.KendallTopK(a, a, 3), prf.KendallTopK(a, b, 3))
	// Output:
	// 0.0000 0.3333
}

// The unified engine answers any PRF-family query on any backend through
// one declarative API. On an independent dataset, a monotone α grid
// automatically rides the kinetic sweep.
func ExampleEngine() {
	d, _ := prf.NewDataset(
		[]float64{100, 80, 50, 30},
		[]float64{0.4, 0.6, 0.5, 0.9},
	)
	eng := prf.EngineFor(d)
	res, _ := eng.Rank(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alpha: 0.5, Output: prf.OutputRanking,
	})
	fmt.Println(res.Ranking)
	batch, _ := eng.RankBatch(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alphas: []float64{0.5, 1.0}, Output: prf.OutputTopK, K: 2,
	})
	for _, r := range batch {
		fmt.Println(r.Alpha, r.Ranking)
	}
	// Output:
	// [1 0 3 2]
	// 0.5 [1 0]
	// 1 [3 1]
}

// The same Query runs unchanged on correlated data: here the paper's
// Figure 1 traffic database as an and/xor tree.
func ExampleEngine_tree() {
	tree, _ := prf.NewTree(prf.NewAnd(
		prf.NewXor([]float64{0.4}, prf.NewLeaf(120)),
		prf.NewXor([]float64{0.7, 0.3}, prf.NewLeaf(130), prf.NewLeaf(80)),
		prf.NewXor([]float64{0.4, 0.6}, prf.NewLeaf(95), prf.NewLeaf(110)),
		prf.NewXor([]float64{1.0}, prf.NewLeaf(105)),
	))
	eng := prf.EngineForTree(tree)
	res, _ := eng.Rank(context.Background(), prf.Query{
		Metric: prf.MetricPTh, H: 2, Output: prf.OutputTopK, K: 3,
	})
	fmt.Println(res.Ranking)
	// Output:
	// [1 4 0]
}

// Arbitrary correlations run through the junction-tree backend; the
// engine folds the cached rank-distribution matrix per query.
func ExampleEngine_network() {
	net, _ := prf.NewMarkovNetwork([]float64{30, 20, 10}, []prf.MarkovFactor{
		{Vars: []int{0, 1}, Table: []float64{0.2, 0.1, 0.1, 0.6}},
		{Vars: []int{1, 2}, Table: []float64{0.5, 0.5, 0.8, 0.2}},
	})
	eng, _ := prf.EngineForNetwork(net)
	res, _ := eng.Rank(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alpha: 0.95, Output: prf.OutputRanking,
	})
	fmt.Println(res.Ranking)
	// Output:
	// [0 1 2]
}

// Repeated dashboards wrap the engine in the result cache: identical
// queries after the first answer from the canonical-query LRU, bit for bit.
// Prepared views are immutable, so the cache never invalidates.
func ExampleNewCachedEngine() {
	d, _ := prf.NewDataset(
		[]float64{100, 80, 50, 30},
		[]float64{0.4, 0.6, 0.5, 0.9},
	)
	cached := prf.NewCachedEngine(prf.EngineFor(d), 128)
	q := prf.Query{Metric: prf.MetricPRFe, Alpha: 0.5, Output: prf.OutputTopK, K: 2}
	for refresh := 0; refresh < 3; refresh++ {
		res, _ := cached.Rank(context.Background(), q)
		fmt.Println(res.Ranking)
	}
	st := cached.Stats()
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// [1 0]
	// [1 0]
	// [1 0]
	// hits=2 misses=1
}

// Markov chains get the O(n log n) product-tree PRFe kernel behind the
// same API.
func ExampleEngine_chain() {
	chain, _ := prf.NewMarkovChain([]float64{3, 1, 2}, [][2][2]float64{
		{{0.2, 0.3}, {0.1, 0.4}}, // Pr(Y_0, Y_1)
		{{0.2, 0.1}, {0.4, 0.3}}, // Pr(Y_1, Y_2)
	})
	eng := prf.EngineForChain(chain)
	res, _ := eng.Rank(context.Background(), prf.Query{Metric: prf.MetricPRFe, Alpha: 0.5})
	for v, u := range res.Complex {
		fmt.Printf("t%d: %.4f\n", v, real(u))
	}
	// Output:
	// t0: 0.2500
	// t1: 0.1964
	// t2: 0.1488
}
