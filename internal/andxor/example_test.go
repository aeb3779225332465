package andxor_test

import (
	"context"
	"fmt"

	"repro/internal/andxor"
)

// A PreparedTree pays the leaf sort and the incremental Algorithm 3 buffers
// once, then serves the whole α spectrum — here the Figure 1 traffic
// database, whose PRFe ranking shifts from score-dominated to
// probability-dominated as α grows.
func ExamplePrepareTree() {
	tree, _ := andxor.New(andxor.NewAnd(
		andxor.NewXor([]float64{0.4}, andxor.NewLeaf(120)),
		andxor.NewXor([]float64{0.7, 0.3}, andxor.NewLeaf(130), andxor.NewLeaf(80)),
		andxor.NewXor([]float64{0.4, 0.6}, andxor.NewLeaf(95), andxor.NewLeaf(110)),
		andxor.NewXor([]float64{1.0}, andxor.NewLeaf(105)),
	))
	pt := andxor.PrepareTree(tree)
	for _, alpha := range []float64{0.1, 0.9} {
		fmt.Println(alpha, pt.RankPRFe(alpha).TopK(3))
	}
	// The batch query answers a grid in one call (identical results, shared
	// evaluation state, parallel across α).
	sweep, err := pt.QueryRankPRFeBatch(context.Background(), []float64{0.1, 0.9})
	if err != nil {
		panic(err)
	}
	fmt.Println(sweep[0].TopK(3), sweep[1].TopK(3))
	// Output:
	// 0.1 [1 0 4]
	// 0.9 [5 1 4]
	// [1 0 4] [5 1 4]
}
