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
	register("fig6",
		"Figure 6 (Example 7): PRFe curves Υα(t) of four tuples and their crossing points",
		runFig6)
	register("fig7",
		"Figure 7: Kendall distance between PRFe(α=1−0.9^i) and prior ranking functions, IIP-100,000 and Syn-IND-1,000 (k=100)",
		runFig7)
}

func runFig6(_ context.Context, cfg Config) error {
	// The Example 7 database: (t1:100,.4) (t2:80,.6) (t3:50,.5) (t4:30,.9).
	d := pdb.MustDataset([]float64{100, 80, 50, 30}, []float64{0.4, 0.6, 0.5, 0.9})
	v := core.Prepare(d) // one sorted view for the curves and crossings
	header(cfg.Out, "Figure 6 — Υα(ti) for Example 7")
	alphas := make([]float64, 21)
	for i := range alphas {
		alphas[i] = float64(i) / 20
	}
	curves := v.PRFeCurve(alphas)
	fmt.Fprintf(cfg.Out, "%6s %10s %10s %10s %10s   ranking\n", "alpha", "f1", "f2", "f3", "f4")
	for a, alpha := range alphas {
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			vals[i] = curves[i][a]
		}
		r := pdb.RankByValue(vals)
		fmt.Fprintf(cfg.Out, "%6.2f %10.5f %10.5f %10.5f %10.5f   %v\n",
			alpha, vals[0], vals[1], vals[2], vals[3], r)
	}
	fmt.Fprintln(cfg.Out, "\nCrossing points (Theorem 4: each pair crosses at most once):")
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if beta, ok := v.CrossingPoint(i, j); ok {
				fmt.Fprintf(cfg.Out, "  sorted positions (%d,%d): crossing at α=%.4f\n", i+1, j+1, beta)
			} else {
				fmt.Fprintf(cfg.Out, "  sorted positions (%d,%d): no crossing (domination)\n", i+1, j+1)
			}
		}
	}
	// The kinetic sweep counts the crossings it passes through, making the
	// spectrum exact; a grid sample can only lower-bound it.
	fmt.Fprintf(cfg.Out, "\nSpectrum: %d distinct rankings over α ∈ (0,1) exactly (kinetic sweep); ", v.SpectrumSize())
	fmt.Fprintf(cfg.Out, "a 20-point grid sees %d.\n", v.SpectrumSizeGrid(20))
	fmt.Fprintln(cfg.Out, "\nPaper: the ranking morphs from {t1,t2,t3,t4} (α→0, the Pr(r=1) order)")
	fmt.Fprintln(cfg.Out, "to {t4,t2,t3,t1} (α=1, the probability order), one adjacent swap at a time.")
	return nil
}

func runFig7(ctx context.Context, cfg Config) error {
	k := 100
	datasets := []struct {
		name string
		d    *pdb.Dataset
	}{
		{"IIP", datagen.IIPLike(cfg.scaled(100000, 1000), cfg.Seed)},
		{"Syn-IND", datagen.SynIND(1000, cfg.Seed+1)},
	}
	is, alphas := logGrid(21, 10)
	for _, ds := range datasets {
		d := ds.d
		n := d.Len()
		kk := k
		if kk > n/2 {
			kk = n / 2
		}
		// Reference rankings, all off one shared prepared view.
		v := core.Prepare(d)
		score := pdb.RankByValue(baselines.ByScore(d))
		prob := pdb.RankByValue(baselines.ByProbability(d))
		eScore := pdb.RankByValue(baselines.EScore(d))
		pt := pdb.RankByValue(v.PTh(kk))
		uRank := mustRanking(baselines.URankPrepared(v, kk))
		eRank := baselines.ERankRanking(baselines.ERankPrepared(v))
		uTop, _, errUT := baselines.UTopKPrepared(v, kk)
		pdb.MustNoErr(errUT)
		refs := []struct {
			name string
			r    pdb.Ranking
		}{
			{"Score", score}, {"Prob", prob}, {"E-Score", eScore},
			{fmt.Sprintf("PT(%d)", kk), pt}, {"U-Rank", uRank},
			{"E-Rank", eRank}, {"U-Top", uTop},
		}
		header(cfg.Out, fmt.Sprintf("Figure 7 — %s-%d, k=%d, α=1−0.9^i", ds.name, n, kk))
		fmt.Fprintf(cfg.Out, "%4s %8s", "i", "alpha")
		for _, ref := range refs {
			fmt.Fprintf(cfg.Out, " %9s", ref.name)
		}
		fmt.Fprintln(cfg.Out)
		// The α grid is monotone, so the batch rides the kinetic sweep:
		// one sort at the first grid point, adjacent swaps after that.
		sweep, err := v.QueryRankPRFeBatch(ctx, alphas)
		if err != nil {
			return err
		}
		for j, alpha := range alphas {
			fmt.Fprintf(cfg.Out, "%4d %8.5f", is[j], alpha)
			for _, ref := range refs {
				fmt.Fprintf(cfg.Out, " %9.4f", kendall(sweep[j], ref.r, kk))
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	fmt.Fprintln(cfg.Out, "\nPaper: PRFe is close to Score for small α and to Prob for α→1; for every")
	fmt.Fprintln(cfg.Out, "other function there is an α making the distance small (uni-valley curves).")
	return nil
}
