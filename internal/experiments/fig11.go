package experiments

import (
	"context"
	"fmt"

	"repro/internal/andxor"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
)

func init() {
	register("fig11",
		"Figure 11: execution times — (i) four functions vs n; (ii) exact PT(h) vs PRFe-combination approximations; (iii) correlated datasets",
		runFig11)
}

func runFig11(ctx context.Context, cfg Config) error {
	// Part (i): PRFe, PT(100), U-Rank(k), E-Rank on IIP datasets of growing
	// size.
	header(cfg.Out, "Figure 11(i) — execution time vs number of tuples (IIP)")
	fmt.Fprintf(cfg.Out, "%10s %12s %12s %12s %12s %12s\n", "n", "prepare", "PRFe(.95)", "PT(100)", "U-Rank(100)", "E-Rank")
	for _, base := range []int{200000, 400000, 600000, 800000, 1000000} {
		n := cfg.scaled(base, 1000)
		d := datagen.IIPLike(n, cfg.Seed)
		h := 100
		k := 100
		// One sort for the whole row; every kernel below is a pure scan.
		var v *core.Prepared
		tPrep := timeIt(func() { v = core.Prepare(d) })
		tPRFe := timeIt(func() { v.PRFeLog(complex(0.95, 0)) })
		tPT := timeIt(func() { v.PTh(h) })
		tUR := timeIt(func() { mustRanking(baselines.URankPrepared(v, k)) })
		tER := timeIt(func() { baselines.ERankPrepared(v) })
		fmt.Fprintf(cfg.Out, "%10d %12s %12s %12s %12s %12s\n", n,
			fmtDur(tPrep), fmtDur(tPRFe), fmtDur(tPT), fmtDur(tUR), fmtDur(tER))
	}

	// Part (ii): exact PT(h) vs L-term PRFe approximations.
	header(cfg.Out, "Figure 11(ii) — exact PT(h) vs approximation by L PRFe terms (IIP)")
	fmt.Fprintf(cfg.Out, "%10s %8s %12s %10s %10s %10s\n", "n", "h", "exact", "w20", "w50", "w100")
	for _, base := range []int{200000, 600000, 1000000} {
		n := cfg.scaled(base, 1000)
		h := cfg.scaled(10000, 100)
		if h > n/2 {
			h = n / 2
		}
		d := datagen.IIPLike(n, cfg.Seed)
		v := core.Prepare(d)
		tExact := timeIt(func() { v.PTh(h) })
		times := make(map[int]string)
		for _, l := range []int{20, 50, 100} {
			terms := dftapprox.TermsForRankWeights(
				dftapprox.Approximate(dftapprox.Step(h), h, dftapprox.DefaultOptions(l)))
			coreTerms := make([]core.ExpTerm, len(terms))
			for i, t := range terms {
				coreTerms[i] = core.ExpTerm{U: t.U, Alpha: t.Alpha}
			}
			// Fused single-pass combination over the shared view.
			times[l] = fmtDur(timeIt(func() { v.PRFeCombo(coreTerms) }))
		}
		fmt.Fprintf(cfg.Out, "%10d %8d %12s %10s %10s %10s\n",
			n, h, fmtDur(tExact), times[20], times[50], times[100])
	}

	// Part (iii): correlated datasets (Syn-XOR low correlation, Syn-HIGH
	// high correlation): incremental PRFe vs exact PT(h) vs approximations.
	header(cfg.Out, "Figure 11(iii) — correlated datasets (and/xor trees)")
	fmt.Fprintf(cfg.Out, "%10s %10s %8s %12s %12s %10s %10s\n",
		"dataset", "n", "h", "PRFe(.95)", "exact PT(h)", "w20", "w50")
	for _, base := range []int{20000, 60000, 100000} {
		n := cfg.scaled(base, 500)
		// Exact PT(h) on trees is O(n²h); keep h proportionate so the
		// harness completes (the paper's own exact runs took ~1000s).
		h := n / 10
		if h > 1000 {
			h = 1000
		}
		for _, which := range []string{"Syn-XOR", "Syn-HIGH"} {
			var tree *andxor.Tree
			var err error
			if which == "Syn-XOR" {
				tree, err = datagen.SynXOR(n, cfg.Seed)
			} else {
				tree, err = datagen.SynHIGH(n, cfg.Seed)
			}
			if err != nil {
				return err
			}
			// One PreparedTree per dataset: the PRFe and approximation
			// timings below measure evaluation over the shared view, with
			// the leaf sort and Algorithm 3 buffers paid once up front.
			pt := andxor.PrepareTree(tree)
			tPRFe := timeIt(func() { pt.PRFe(complex(0.95, 0)) })
			// Exact PT(h) on trees is O(n²h); beyond ~2e9 operations we
			// report it as skipped, which is the paper's own point (their
			// exact runs took up to an hour).
			exactStr := "(skipped)"
			if float64(n)*float64(n)*float64(h) <= 2e9 {
				exactStr = fmtDur(timeIt(func() { andxor.PTh(tree, h) }))
			}
			approxTime := func(l int) (string, error) {
				terms := dftapprox.TermsForRankWeights(
					dftapprox.Approximate(dftapprox.Step(h), h, dftapprox.DefaultOptions(l)))
				us := make([]complex128, len(terms))
				alphas := make([]complex128, len(terms))
				for i, t := range terms {
					us[i], alphas[i] = t.U, t.Alpha
				}
				var err error
				dur := timeIt(func() { _, err = pt.QueryPRFeCombo(ctx, us, alphas) })
				return fmtDur(dur), err
			}
			approx20, err := approxTime(20)
			if err != nil {
				return err
			}
			approx50, err := approxTime(50)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%10s %10d %8d %12s %12s %10s %10s\n",
				which, n, h, fmtDur(tPRFe), exactStr, approx20, approx50)
		}
	}
	fmt.Fprintln(cfg.Out, "\nPaper: PRFe and E-Rank are linear and k-insensitive (a million tuples in")
	fmt.Fprintln(cfg.Out, "1-2s); PT(h)/U-Rank grow with h·n and k·n; the PRFe-combination")
	fmt.Fprintln(cfg.Out, "approximation beats exact PT(h) by orders of magnitude at large h.")
	return nil
}
