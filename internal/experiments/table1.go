package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pdb"
)

func init() {
	register("table1",
		"Table 1: normalized Kendall distance between top-100 answers of E-Score, PT(100), U-Rank, E-Rank, U-Top on IIP-100,000 and Syn-IND-100,000",
		runTable1)
}

// baselineRankings computes the five Table 1 rankings on an independent
// dataset. U-Top is the exact odds-scan answer (the paper's most-probable
// top-k set).
func baselineRankings(d *pdb.Dataset, k, h int) (labels []string, ranks []pdb.Ranking) {
	labels = []string{"E-Score", fmt.Sprintf("PT(%d)", h), "U-Rank", "E-Rank", "U-Top"}
	// All five semantics share one prepared (sorted) view of the dataset.
	v := core.Prepare(d)
	eScore := pdb.RankByValue(baselines.EScore(d))
	pt := pdb.RankByValue(v.PTh(h))
	uRank := mustRanking(baselines.URankPrepared(v, k))
	eRank := baselines.ERankRanking(baselines.ERankPrepared(v))
	uTop, _, errUT := baselines.UTopKPrepared(v, k)
	pdb.MustNoErr(errUT)
	ranks = []pdb.Ranking{eScore, pt, uRank, eRank, uTop}
	return labels, ranks
}

func runTable1(_ context.Context, cfg Config) error {
	n := cfg.scaled(100000, 500)
	k := 100
	if k > n/2 {
		k = n / 2
	}
	h := k
	for name, build := range map[string]func() *pdb.Dataset{
		"IIP": func() *pdb.Dataset { return datagen.IIPLike(n, cfg.Seed) },
		"Syn-IND": func() *pdb.Dataset {
			return datagen.SynIND(n, cfg.Seed+1)
		},
	} {
		d := build()
		labels, ranks := baselineRankings(d, k, h)
		dist := make([][]float64, len(ranks))
		for i := range dist {
			dist[i] = make([]float64, len(ranks))
			for j := range ranks {
				if i != j {
					dist[i][j] = kendall(ranks[i], ranks[j], k)
				}
			}
		}
		header(cfg.Out, fmt.Sprintf("Table 1 — %s-%d (k=%d)", name, n, k))
		matrix(cfg.Out, labels, dist)
	}
	fmt.Fprintln(cfg.Out, "\nPaper: the five semantics disagree wildly (distances 0.12-0.95, no")
	fmt.Fprintln(cfg.Out, "consistent pattern across datasets); E-Rank is the clearest outlier on IIP.")
	return nil
}
