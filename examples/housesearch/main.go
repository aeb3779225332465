// House search: the paper's motivating application (Section 1). A crawled
// real-estate dataset is noisy — the most attractive listings are also the
// most likely to be already sold. Each listing gets a desirability score and
// a probability that the advertisement is still valid; the example shows how
// the choice of ranking function changes what the user sees, and how a
// PRFe parameter can be learned from the user's feedback on a sample.
//
//	go run ./examples/housesearch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	prf "repro"
)

type listing struct {
	name  string
	score float64 // desirability (size, location, price, …)
	valid float64 // probability the ad is still valid
}

func main() {
	rng := rand.New(rand.NewSource(7))
	// Hand-picked head of the market plus a random tail: desirable houses
	// sell fast, so score and validity are anti-correlated.
	listings := []listing{
		{"lakefront villa", 98, 0.15},
		{"penthouse downtown", 95, 0.25},
		{"garden house", 90, 0.35},
		{"modern townhouse", 84, 0.55},
		{"quiet bungalow", 78, 0.70},
		{"family duplex", 74, 0.80},
		{"starter condo", 65, 0.90},
		{"fixer-upper", 50, 0.97},
	}
	for i := 0; i < 80; i++ {
		s := 30 + rng.Float64()*60
		listings = append(listings, listing{
			name:  fmt.Sprintf("listing-%02d", i),
			score: s,
			valid: clamp(1.15-s/100+0.2*rng.NormFloat64(), 0.02, 0.98),
		})
	}

	scores := make([]float64, len(listings))
	probs := make([]float64, len(listings))
	for i, l := range listings {
		scores[i] = l.score
		probs[i] = l.valid
	}
	d, err := prf.NewDataset(scores, probs)
	if err != nil {
		log.Fatal(err)
	}

	show := func(title string, r prf.Ranking) {
		fmt.Printf("%s\n", title)
		for i, id := range r.TopK(5) {
			l := listings[id]
			fmt.Printf("  %d. %-20s score %5.1f  valid %.2f\n", i+1, l.name, l.score, l.valid)
		}
	}

	// Three users, three risk attitudes, one parameter.
	market := prf.EngineFor(d)
	show("risk-seeking shopper (PRFe α=0.3): best houses, maybe gone", rankPRFe(market, 0.3))
	show("\nbalanced shopper (PRFe α=0.9):", rankPRFe(market, 0.9))
	show("\ncautious shopper (PRFe α=0.999): must still be available", rankPRFe(market, 0.999))
	show("\nexpected-score ranking for contrast:", prf.TopK(prf.EScore(d), 5))

	// Learning from feedback (Section 5.2): the user reorders a sample of
	// 20 listings; we fit α to their preference and rank the full market.
	sample, _ := d.Subset(rng.Perm(d.Len())[:20])
	// Suppose the user's implicit preference is PT(5): "show me things
	// likely to be among the 5 best available".
	userRanking := prf.RankByValue(pth(prf.EngineFor(sample), 5))
	res := prf.LearnAlpha(sample, userRanking, 10, 8)
	fmt.Printf("\nlearned α=%.4f from a 20-listing sample (sample Kendall distance %.4f)\n",
		res.Alpha, res.Distance)
	learned := rankPRFe(market, res.Alpha)
	show("personalized ranking with the learned α:", learned)

	// How close is the personalized ranking to the user's true preference
	// on the whole market?
	truth := prf.RankByValue(pth(market, 5))
	fmt.Printf("\nfull-market Kendall distance to the user's true preference: %.4f\n",
		prf.KendallTopK(truth.TopK(10), learned.TopK(10), 10))
}

// rankPRFe returns the full PRFe(α) ranking, exiting on error.
func rankPRFe(e *prf.Engine, alpha float64) prf.Ranking {
	res, err := e.Rank(context.Background(), prf.Query{
		Metric: prf.MetricPRFe, Alpha: alpha, Output: prf.OutputRanking,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Ranking
}

// pth returns the PT(h) values per listing, exiting on error.
func pth(e *prf.Engine, h int) []float64 {
	res, err := e.Rank(context.Background(), prf.Query{Metric: prf.MetricPTh, H: h})
	if err != nil {
		log.Fatal(err)
	}
	return res.Values
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
