package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
	"repro/internal/pdb"
)

func init() {
	register("fig9",
		"Figure 9: learning PRFe(α) and PRFω from user preferences synthesized by five ranking functions",
		runFig9)
}

// userFunc is one of the paper's assumed "true" user ranking functions.
type userFunc struct {
	name string
	rank func(d *pdb.Dataset, k int) pdb.Ranking
}

func fig9UserFuncs() []userFunc {
	return []userFunc{
		{"PT(100)", func(d *pdb.Dataset, k int) pdb.Ranking {
			h := 100
			if h > d.Len() {
				h = d.Len()
			}
			return pdb.RankByValue(core.PTh(d, h))
		}},
		{"PRFe(.95)", func(d *pdb.Dataset, _ int) pdb.Ranking {
			return core.RankPRFe(d, 0.95)
		}},
		{"E-Score", func(d *pdb.Dataset, _ int) pdb.Ranking {
			return pdb.RankByValue(baselines.EScore(d))
		}},
		{"U-Rank", func(d *pdb.Dataset, k int) pdb.Ranking {
			kk := 100
			if kk > d.Len() {
				kk = d.Len()
			}
			return mustRanking(baselines.URank(d, kk))
		}},
		{"E-Rank", func(d *pdb.Dataset, _ int) pdb.Ranking {
			return baselines.ERankRanking(baselines.ERank(d))
		}},
	}
}

func runFig9(_ context.Context, cfg Config) error {
	n := cfg.scaled(100000, 2000)
	k := 100
	d := datagen.IIPLike(n, cfg.Seed)
	funcs := fig9UserFuncs()

	// Part (i): learn a single PRFe α from samples of increasing size.
	header(cfg.Out, fmt.Sprintf("Figure 9(i) — learning PRFe(α), IIP-%d, k=%d", n, k))
	sampleSizes := []int{cfg.scaled(1000, 100), cfg.scaled(10000, 500), cfg.scaled(100000, 1000)}
	fmt.Fprintf(cfg.Out, "%10s", "samples")
	for _, f := range funcs {
		fmt.Fprintf(cfg.Out, " %12s", f.name)
	}
	fmt.Fprintln(cfg.Out)
	for _, m := range sampleSizes {
		fmt.Fprintf(cfg.Out, "%10d", m)
		sample, _ := d.Subset(sampleIndices(n, m, cfg.Seed+int64(m)))
		for _, f := range funcs {
			// The user ranks the sample as if it were the whole relation.
			user := f.rank(sample, k)
			res := learn.LearnAlpha(sample, user, k, 8)
			// Evaluate on the full dataset: learned PRFe vs true function.
			truth := f.rank(d, k)
			learned := core.RankPRFe(d, res.Alpha)
			fmt.Fprintf(cfg.Out, " %12.4f", kendall(truth, learned, k))
		}
		fmt.Fprintln(cfg.Out)
	}

	// Part (ii): learn a PRFω weight vector (RankSVM-style) from small
	// samples, as the paper does with SVM-light (sample ≤ 200).
	header(cfg.Out, fmt.Sprintf("Figure 9(ii) — learning PRFω, IIP-%d, k=%d", n, k))
	h := 100
	fmt.Fprintf(cfg.Out, "%10s", "samples")
	for _, f := range funcs {
		fmt.Fprintf(cfg.Out, " %12s", f.name)
	}
	fmt.Fprintln(cfg.Out)
	for _, m := range []int{50, 100, 200} {
		fmt.Fprintf(cfg.Out, "%10d", m)
		sample, _ := d.Subset(sampleIndices(n, m, cfg.Seed+int64(1000+m)))
		for _, f := range funcs {
			user := f.rank(sample, k)
			w := learn.LearnOmega(sample, user, learn.OmegaOptions{H: h, Iters: 400})
			truth := f.rank(d, k)
			learned := learn.RankWithOmega(d, w)
			fmt.Fprintf(cfg.Out, " %12.4f", kendall(truth, learned, k))
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out, "\nPaper: PRFe is learned perfectly when the truth is PRFe; PT(h)/U-Rank are")
	fmt.Fprintln(cfg.Out, "learned well from small samples; E-Rank is hard (sharp valley, dataset-size")
	fmt.Fprintln(cfg.Out, "sensitive); PRFω learning recovers PT(h) and PRFe but U-Rank only partially.")
	return nil
}
