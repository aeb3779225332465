package experiments

import (
	"context"
	"fmt"

	"repro/internal/andxor"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pdb"
)

func init() {
	register("fig10",
		"Figure 10: effect of correlations — Kendall distance between correlation-aware and independence-assuming rankings on Syn-XOR/LOW/MED/HIGH",
		runFig10)
}

type corrDataset struct {
	name string
	tree *andxor.Tree
}

func fig10Datasets(cfg Config, n int) ([]corrDataset, error) {
	synXOR, err := datagen.SynXOR(n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	synLOW, err := datagen.SynLOW(n, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	synMED, err := datagen.SynMED(n, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	synHIGH, err := datagen.SynHIGH(n, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	return []corrDataset{
		{"Syn-XOR", synXOR}, {"Syn-LOW", synLOW}, {"Syn-MED", synMED}, {"Syn-HIGH", synHIGH},
	}, nil
}

func runFig10(ctx context.Context, cfg Config) error {
	k := 100
	// Part (i): PRFe across α — cheap on trees, so use a larger n.
	n1 := cfg.scaled(10000, 1000)
	ds, err := fig10Datasets(cfg, n1)
	if err != nil {
		return err
	}
	header(cfg.Out, fmt.Sprintf("Figure 10(i) — PRFe(α): correlation-aware vs independence-assuming, n=%d, k=%d", n1, k))
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0}
	fmt.Fprintf(cfg.Out, "%6s", "alpha")
	for _, d := range ds {
		fmt.Fprintf(cfg.Out, " %10s", d.name)
	}
	fmt.Fprintln(cfg.Out)
	// Independence-assuming sweeps: one prepared view per dataset; the
	// monotone α grid rides the kinetic sweep (sort once, then crossings).
	// Correlation-aware sweeps: one PreparedTree per dataset; the grid reuses
	// the cached leaf order and pooled Algorithm 3 state.
	indepSweeps := make([][]pdb.Ranking, len(ds))
	awareSweeps := make([][]pdb.Ranking, len(ds))
	for i, d := range ds {
		if indepSweeps[i], err = core.Prepare(d.tree.Dataset()).QueryRankPRFeBatch(ctx, alphas); err != nil {
			return err
		}
		if awareSweeps[i], err = andxor.PrepareTree(d.tree).QueryRankPRFeBatch(ctx, alphas); err != nil {
			return err
		}
	}
	for a, alpha := range alphas {
		fmt.Fprintf(cfg.Out, "%6.2f", alpha)
		for i := range ds {
			fmt.Fprintf(cfg.Out, " %10.4f", kendall(awareSweeps[i][a], indepSweeps[i][a], k))
		}
		fmt.Fprintln(cfg.Out)
	}

	// Part (ii): PRFe(0.9), PT(100), U-Rank — PT/U-Rank on trees cost
	// O(n²h), so a smaller n keeps the harness responsive.
	n2 := cfg.scaled(2000, 300)
	k2 := 100
	if k2 > n2/4 {
		k2 = n2 / 4
	}
	ds2, err := fig10Datasets(cfg, n2)
	if err != nil {
		return err
	}
	header(cfg.Out, fmt.Sprintf("Figure 10(ii) — per-function correlation sensitivity, n=%d, k=%d", n2, k2))
	fmt.Fprintf(cfg.Out, "%10s %12s %12s %12s\n", "dataset", "PRFe(0.9)", fmt.Sprintf("PT(%d)", k2), "U-Rank")
	for _, d := range ds2 {
		v := core.Prepare(d.tree.Dataset())
		pt := andxor.PrepareTree(d.tree)
		prfeDist := kendall(pt.RankPRFe(0.9), v.RankPRFe(0.9), k2)
		ptDist := kendall(
			pdb.RankByValue(andxor.PTh(d.tree, k2)),
			pdb.RankByValue(v.PTh(k2)), k2)
		urDist := kendall(
			mustRanking(baselines.URankTree(d.tree, k2)),
			mustRanking(baselines.URankPrepared(v, k2)), k2)
		fmt.Fprintf(cfg.Out, "%10s %12.4f %12.4f %12.4f\n", d.name, prfeDist, ptDist, urDist)
	}
	fmt.Fprintln(cfg.Out, "\nPaper: ignoring correlations is nearly harmless on Syn-XOR (x-tuples) but")
	fmt.Fprintln(cfg.Out, "increasingly harmful from Syn-LOW to Syn-HIGH; all curves approach 0 as α→1")
	fmt.Fprintln(cfg.Out, "(PRFe degenerates to ranking by marginal probability).")
	return nil
}
