// Sensor networks with arbitrary correlations (Section 9): temperature
// sensors along a pipeline report anomalies; neighboring sensors are
// positively correlated (heat spreads), so presence variables form a Markov
// chain, and a shared power bus couples two distant groups — a genuine
// Markov *network*. The example ranks "most anomalous sensor readings"
// with the junction-tree algorithm and compares against the chain fast path
// and an independence-assuming ranking.
//
//	go run ./examples/sensors
package main

import (
	"context"
	"fmt"
	"log"

	prf "repro"
)

func main() {
	// 12 sensors; score = anomaly magnitude (°C above seasonal normal).
	scores := []float64{8.5, 7.9, 7.2, 6.8, 6.1, 5.5, 5.0, 4.4, 3.9, 3.1, 2.5, 2.0}
	n := len(scores)

	// Unary potentials: base anomaly probabilities.
	factors := make([]prf.MarkovFactor, 0, 2*n)
	base := []float64{0.3, 0.5, 0.4, 0.6, 0.3, 0.5, 0.4, 0.6, 0.3, 0.5, 0.4, 0.6}
	for v := 0; v < n; v++ {
		factors = append(factors, prf.MarkovFactor{
			Vars: []int{v}, Table: []float64{1 - base[v], base[v]},
		})
	}
	// Chain coupling: adjacent sensors tend to agree (both anomalous or
	// both normal get weight 2, disagreement weight 1).
	for v := 0; v+1 < n; v++ {
		factors = append(factors, prf.MarkovFactor{
			Vars: []int{v, v + 1}, Table: []float64{2, 1, 1, 2},
		})
	}
	// Shared power bus couples sensors 2 and 9 across the pipeline.
	factors = append(factors, prf.MarkovFactor{
		Vars: []int{2, 9}, Table: []float64{3, 1, 1, 3},
	})

	net, err := prf.NewMarkovNetwork(scores, factors)
	if err != nil {
		log.Fatal(err)
	}
	// One prepared view serves every query below: the junction tree is
	// built and calibrated once, and the Section 9.4 DP runs once.
	pn, err := prf.PrepareNetwork(net)
	if err != nil {
		log.Fatal(err)
	}
	jt := pn.JTree()
	fmt.Printf("junction tree: %d cliques, treewidth %d\n", jt.NumCliques(), jt.Treewidth())

	// Exact rank distributions under the full correlation structure.
	rd := pn.RankDistribution()
	fmt.Println("\nPr(sensor ranks among top 3 anomalies):")
	top3 := make([]float64, n)
	for v := 0; v < n; v++ {
		top3[v] = rd.At(prf.TupleID(v), 1) + rd.At(prf.TupleID(v), 2) + rd.At(prf.TupleID(v), 3)
	}
	for _, id := range prf.TopK(top3, 5) {
		fmt.Printf("  sensor %2d: %.4f (anomaly %.1f°C, marginal %.3f)\n",
			id, top3[id], scores[id], pn.Marginal(int(id)))
	}

	// PRFe over the network vs an independence-assuming PRFe with the same
	// marginals.
	corr := prf.RankByValue(prf.RealParts(pn.PRFe(complex(0.9, 0))))
	margs := make([]float64, n)
	for v := 0; v < n; v++ {
		margs[v] = pn.Marginal(v)
	}
	indepD, err := prf.NewDataset(scores, margs)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prf.EngineFor(indepD).Rank(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alpha: 0.9, Output: prf.OutputRanking,
	})
	if err != nil {
		log.Fatal(err)
	}
	indep := res.Ranking
	fmt.Printf("\nPRFe(0.9) with correlations:    %v\n", corr.TopK(6))
	fmt.Printf("PRFe(0.9) assuming independence: %v\n", indep.TopK(6))
	fmt.Printf("Kendall distance: %.4f\n", prf.KendallTopK(corr.TopK(6), indep.TopK(6), 6))

	// The pure-chain fast path (Section 9.3) on the first 6 sensors,
	// parameterized by calibrated pairwise joints.
	pair := make([][2][2]float64, 5)
	marg := 0.4
	for j := range pair {
		// Positively correlated consecutive pairs with consistent margins.
		stay := 0.75
		pair[j][1][1] = marg * stay
		pair[j][1][0] = marg * (1 - stay)
		pair[j][0][1] = (1 - marg) * (1 - stay) * marg / (1 - marg)
		pair[j][0][0] = 1 - pair[j][1][1] - pair[j][1][0] - pair[j][0][1]
		marg = pair[j][1][1] + pair[j][0][1]
	}
	chain, err := prf.NewMarkovChain(scores[:6], pair)
	if err != nil {
		log.Fatal(err)
	}
	crd := chain.RankDistribution()
	fmt.Println("\nMarkov-chain fast path, Pr(r(sensor 0)=j):")
	for j := 1; j <= 3; j++ {
		fmt.Printf("  j=%d: %.4f\n", j, crd.At(0, j))
	}

	// The prepared chain answers a whole α sweep with the product-tree
	// algorithm (O(n log n) per α instead of the cubic DP).
	sweep, err := prf.EngineForChain(chain).RankBatch(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alphas: []float64{0.5, 0.9, 1.0}, Output: prf.OutputRanking,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nchain PRFe sweep (α = 0.5, 0.9, 1.0), best first:")
	for _, r := range sweep {
		fmt.Printf("  α=%.1f: %v\n", r.Alpha, r.Ranking)
	}
}
