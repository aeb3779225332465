// Iceberg monitoring at scale: an IIP-style workload (Section 8) with
// 200,000 uncertain sighting records ranked by drift duration. The example
// shows the production path for large datasets: O(n) PRFe ranking, and the
// Section 5.1 trick of approximating an expensive PRFω function — PT(1000) —
// by a 20-term linear combination of PRFe functions, at a fraction of the
// exact cost.
//
//	go run ./examples/iceberg
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	prf "repro"
)

func main() {
	const n = 200000
	rng := rand.New(rand.NewSource(42))

	// Synthesize sightings: drift days (heavy-tailed) + confidence level of
	// the sighting source, exactly the two columns the paper extracts from
	// the real IIP dataset.
	levels := []float64{0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.4}
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		mean := 30.0
		if rng.Float64() < 0.1 {
			mean = 400 // a few icebergs drift for years
		}
		scores[i] = rng.ExpFloat64() * mean
		p := levels[rng.Intn(len(levels))] + rng.NormFloat64()*0.01
		probs[i] = min(0.99, max(0.01, p))
	}
	d, err := prf.NewDataset(scores, probs)
	if err != nil {
		log.Fatal(err)
	}
	d.SortByScore()
	ctx := context.Background()
	eng := prf.EngineFor(d)

	// Fast path: PRFe in one scan.
	start := time.Now()
	res, err := eng.Rank(ctx, prf.Query{Metric: prf.MetricPRFe, Alpha: 0.95, Output: prf.OutputRanking})
	if err != nil {
		log.Fatal(err)
	}
	prfe := res.Ranking
	fmt.Printf("PRFe(0.95) ranked %d sightings in %v\n", n, time.Since(start))
	fmt.Println("top 5 sightings (drift days, confidence):")
	for i, id := range prfe.TopK(5) {
		t, _ := d.ByID(id)
		fmt.Printf("  %d. #%d: %7.1f days, conf %.2f\n", i+1, id, t.Score, t.Prob)
	}

	// Expensive semantics: PT(1000) — "probability of being among the 1000
	// longest-drifting icebergs still out there".
	const h = 1000
	start = time.Now()
	res, err = eng.Rank(ctx, prf.Query{Metric: prf.MetricPTh, H: h, Output: prf.OutputRanking})
	if err != nil {
		log.Fatal(err)
	}
	exact := res.Ranking
	exactTime := time.Since(start)
	fmt.Printf("\nexact PT(%d): %v\n", h, exactTime)

	// Approximate the step weight function by 20 complex exponentials and
	// evaluate as 20 linear PRFe scans.
	start = time.Now()
	terms := prf.ApproximateWeights(prf.StepWeights(h), h, prf.DefaultApproxOptions(20))
	res, err = eng.Rank(ctx, prf.Query{
		Metric: prf.MetricPRFeCombo, Terms: prf.ApproxPRFeTerms(terms), Output: prf.OutputRanking,
	})
	if err != nil {
		log.Fatal(err)
	}
	approx := res.Ranking
	approxTime := time.Since(start)
	fmt.Printf("20-term PRFe approximation: %v (%.1fx faster)\n",
		approxTime, exactTime.Seconds()/approxTime.Seconds())
	fmt.Printf("top-%d Kendall distance exact vs approx: %.4f\n",
		h, prf.KendallTopK(exact.TopK(h), approx.TopK(h), h))

	// How different are the semantics themselves?
	k := 100
	fmt.Printf("\ntop-%d disagreement between semantics (normalized Kendall):\n", k)
	eScore := prf.TopK(prf.EScore(d), k)
	eRank := prf.ERankRanking(prf.ERank(d)).TopK(k)
	fmt.Printf("  PRFe(0.95) vs PT(%d):   %.4f\n", h,
		prf.KendallTopK(prfe.TopK(k), exact.TopK(k), k))
	fmt.Printf("  PRFe(0.95) vs E-Score:  %.4f\n",
		prf.KendallTopK(prfe.TopK(k), eScore, k))
	fmt.Printf("  PRFe(0.95) vs E-Rank:   %.4f\n",
		prf.KendallTopK(prfe.TopK(k), eRank, k))
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
