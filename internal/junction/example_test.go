package junction_test

import (
	"fmt"

	"repro/internal/junction"
)

// A PreparedNetwork triangulates and calibrates the junction tree once and
// caches the rank-distribution matrix, so every subsequent ranking function
// that folds it (PRF, PRFe at any α, Median-Rank) reuses one Section 9.4 DP
// pass. The
// network here is a 3-variable chain with a strong positive coupling
// between the top-scored tuples.
func ExamplePrepareNetwork() {
	scores := []float64{30, 20, 10}
	factors := []junction.Factor{
		{Vars: []int{0, 1}, Table: []float64{0.2, 0.1, 0.1, 0.6}},
		{Vars: []int{1, 2}, Table: []float64{0.5, 0.5, 0.8, 0.2}},
	}
	net, _ := junction.NewNetwork(scores, factors)
	pn, _ := junction.PrepareNetwork(net)
	fmt.Println(pn.RankPRFe(0.95))
	fmt.Printf("Pr(r(t0)=1) = %.3f\n", pn.RankDistribution().At(0, 1))
	// Output:
	// [0 1 2]
	// Pr(r(t0)=1) = 0.625
}

// A PreparedChain evaluates PRFe on a Markov chain with the product-tree
// algorithm: O(n log n) for all n tuples at one α, versus Θ(n³) for the
// partial-sum DP it is certified against.
func ExamplePrepareChain() {
	scores := []float64{3, 1, 2}
	pair := [][2][2]float64{
		{{0.2, 0.3}, {0.1, 0.4}}, // Pr(Y_0, Y_1)
		{{0.2, 0.1}, {0.4, 0.3}}, // Pr(Y_1, Y_2)
	}
	chain, _ := junction.NewChain(scores, pair)
	pc := junction.PrepareChain(chain)
	vals := pc.PRFe(complex(0.5, 0))
	for v, u := range vals {
		fmt.Printf("t%d: %.4f\n", v, real(u))
	}
	// Output:
	// t0: 0.2500
	// t1: 0.1964
	// t2: 0.1488
}
