// Quickstart: rank a small uncertain relation with the parameterized
// ranking functions and inspect the machinery the paper builds on.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	prf "repro"
)

func main() {
	ctx := context.Background()

	// Example 7 from the paper: four tuples trading score against
	// probability. t1 has the best score but the lowest probability.
	d, err := prf.NewDataset(
		[]float64{100, 80, 50, 30},    // scores
		[]float64{0.4, 0.6, 0.5, 0.9}, // existence probabilities
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tuples (ID: score, probability):")
	for _, t := range d.Tuples() {
		fmt.Printf("  t%d: %3.0f  %.1f\n", t.ID+1, t.Score, t.Prob)
	}

	// The unified engine answers every PRF-family query through one
	// declarative API; the same Query would run unchanged on an and/xor
	// tree, a junction network or a Markov chain backend.
	eng := prf.EngineFor(d)

	// PRFe(α) spans a spectrum of rankings: risk-seeking (α→0 favors the
	// chance of being the single best tuple) to conservative (α=1 ranks by
	// probability alone). The monotone grid rides the kinetic sweep.
	fmt.Println("\nPRFe rankings across α:")
	batch, err := eng.RankBatch(ctx, prf.Query{
		Metric: prf.MetricPRFe,
		Alphas: []float64{0.01, 0.5, 0.75, 1.0},
		Output: prf.OutputRanking,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range batch {
		fmt.Printf("  α=%.2f: %v\n", res.Alpha, names(res.Ranking))
	}

	// Exact rank distributions via the generating-function Algorithm 1.
	fmt.Println("\nrank distribution of t4 (Pr(r=j)):")
	rd := prf.RankDistribution(d)
	for j := 1; j <= 4; j++ {
		fmt.Printf("  Pr(r(t4)=%d) = %.4f\n", j, rd.At(3, j))
	}

	// Prior semantics for comparison.
	fmt.Println("\nother ranking functions:")
	fmt.Printf("  E-Score ranking:   %v\n", names(prf.TopK(prf.EScore(d), 4)))
	pt2, err := eng.Rank(ctx, prf.Query{Metric: prf.MetricPTh, H: 2, Output: prf.OutputTopK, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  PT(2) ranking:     %v\n", names(pt2.Ranking))
	fmt.Printf("  E-Rank ranking:    %v\n", names(prf.ERankRanking(prf.ERank(d))))
	uTop, p, err := prf.UTopK(d, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  U-Top 2-set:       %v (probability %.3f)\n", names(uTop), p)
	kSel, v, err := prf.KSelection(d, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  2-selection:       %v (expected best score %.2f)\n", names(kSel), v)

	// The consensus view (Section 6): PT(k)'s answer minimizes the expected
	// set difference from the random world's true top-k.
	tau := prf.ConsensusTopK(d, 2)
	fmt.Printf("\nconsensus top-2 %v, expected symmetric difference %.4f\n",
		names(tau), prf.ExpectedSymDiff(d, tau))
}

func names(r prf.Ranking) []string {
	out := make([]string, len(r))
	for i, id := range r {
		out[i] = fmt.Sprintf("t%d", id+1)
	}
	return out
}
