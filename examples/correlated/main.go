// Correlated data: the paper's Figure 1 traffic-monitoring database. Radar
// readings of speeding cars are uncertain, and readings of the same car at
// different locations are mutually exclusive (a car is in one place at a
// time) — correlations captured by a probabilistic and/xor tree. The example
// ranks with the tree-aware algorithms, shows what ignoring the correlations
// would do, and demonstrates uncertain scores (Section 4.4).
//
//	go run ./examples/correlated
package main

import (
	"context"
	"fmt"
	"log"

	prf "repro"
)

func main() {
	// Figure 1: six radar readings; t2/t3 are the same car (Y-245) seen at
	// two locations, as are t4/t5 (Z-541); t6 is certain.
	names := []string{"t1 (X-123 @120)", "t2 (Y-245 @130)", "t3 (Y-245 @80)",
		"t4 (Z-541 @95)", "t5 (Z-541 @110)", "t6 (L-110 @105)"}
	tree, err := prf.NewTree(prf.NewAnd(
		prf.NewXor([]float64{0.4}, prf.NewLeaf(120)),
		prf.NewXor([]float64{0.7, 0.3},
			prf.NewKeyedLeaf("Y-245", 130), prf.NewKeyedLeaf("Y-245", 80)),
		prf.NewXor([]float64{0.4, 0.6},
			prf.NewKeyedLeaf("Z-541", 95), prf.NewKeyedLeaf("Z-541", 110)),
		prf.NewXor([]float64{1.0}, prf.NewLeaf(105)),
	))
	if err != nil {
		log.Fatal(err)
	}

	// Positional probabilities on the tree (Example 4 of the paper).
	rd := prf.TreeRankDistribution(tree)
	fmt.Printf("Pr(r(t4)=3) = %.3f   (the paper computes 0.216)\n\n", rd.At(3, 3))

	// Correlation-aware ranking vs pretending the tuples are independent:
	// the same query on the tree's engine and on an engine over the bare
	// marginals.
	treeEng := prf.EngineForTree(tree)
	prfe := prf.Query{Metric: prf.MetricPRFe, Alpha: 0.9, Output: prf.OutputRanking}
	aware := rank(treeEng, prfe).Ranking
	indep := rank(prf.EngineFor(tree.Dataset()), prfe).Ranking
	fmt.Println("PRFe(0.9) with correlations:   ", label(aware, names))
	fmt.Println("PRFe(0.9) assuming independence:", label(indep, names))
	fmt.Printf("Kendall distance between the two: %.4f\n\n",
		prf.KendallTopK(aware.TopK(3), indep.TopK(3), 3))

	// Which cars are most likely among the top 2 speeders?
	pt := rank(treeEng, prf.Query{Metric: prf.MetricPTh, H: 2}).Values
	fmt.Println("PT(2) = Pr(among top 2):")
	for _, id := range prf.TopK(pt, 3) {
		fmt.Printf("  %-18s %.3f\n", names[id], pt[id])
	}

	// Consensus answer (Section 6) and U-Rank on the tree.
	fmt.Printf("\nconsensus top-2: %v\n", label(prf.ConsensusTopKTree(tree, 2), names))
	uRank, err := prf.URankTree(tree, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("U-Rank top-3:    %v\n", label(uRank, names))
	fmt.Printf("expected ranks:  ")
	for id, er := range prf.TreeExpectedRanks(tree) {
		fmt.Printf("%s=%.2f ", names[id][:2], er)
	}
	fmt.Println()

	// Uncertain scores (Section 4.4): each car's measured speed is itself a
	// small distribution; alternatives become xor groups.
	groups := [][]prf.Alternative{
		{{Score: 130, Prob: 0.5}, {Score: 120, Prob: 0.3}}, // car A
		{{Score: 125, Prob: 0.8}},                          // car B
		{{Score: 140, Prob: 0.2}, {Score: 100, Prob: 0.7}}, // car C
	}
	vals, err := prf.PRFeUncertainScores(groups, complex(0.9, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nuncertain speeds — PRFe(0.9) per car:")
	for g, v := range vals {
		fmt.Printf("  car %c: %.4f\n", 'A'+g, real(v))
	}
}

// rank answers one query, exiting on error.
func rank(e *prf.Engine, q prf.Query) *prf.Result {
	res, err := e.Rank(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func label(r prf.Ranking, names []string) []string {
	out := make([]string, len(r))
	for i, id := range r {
		out[i] = names[id]
	}
	return out
}
