package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
	"repro/internal/pdb"
)

func init() {
	register("fig8",
		"Figure 8: ranking quality of PT(h)/smooth/linear approximated by L PRFe terms (DFT variants and term sweep)",
		runFig8)
}

// comboRanking ranks a prepared view by the real part of a linear
// combination of PRFe functions derived from sequence-approximation terms,
// using the fused single-pass kernel.
func comboRanking(v *core.Prepared, terms []dftapprox.Term) pdb.Ranking {
	rankTerms := dftapprox.TermsForRankWeights(terms)
	coreTerms := make([]core.ExpTerm, len(rankTerms))
	for i, t := range rankTerms {
		coreTerms[i] = core.ExpTerm{U: t.U, Alpha: t.Alpha}
	}
	vals := v.PRFeCombo(coreTerms)
	return pdb.RankByValue(core.RealParts(vals))
}

func runFig8(_ context.Context, cfg Config) error {
	// Part (i): PT(1000) with k=1000 on IIP-100,000 under the four DFT
	// variants, L sweep.
	n := cfg.scaled(100000, 2000)
	h := cfg.scaled(1000, 50)
	k := h
	d := datagen.IIPLike(n, cfg.Seed)
	v := core.Prepare(d) // one sort amortized over every L and variant below
	exact := pdb.RankByValue(v.PTh(h))
	step := dftapprox.Step(h)

	header(cfg.Out, fmt.Sprintf("Figure 8(i) — approximating PT(%d), IIP-%d, k=%d", h, n, k))
	fmt.Fprintf(cfg.Out, "%6s", "L")
	for _, name := range dftapprox.VariantNames {
		fmt.Fprintf(cfg.Out, " %14s", name)
	}
	fmt.Fprintln(cfg.Out)
	for _, l := range []int{10, 20, 50, 100, 200} {
		fmt.Fprintf(cfg.Out, "%6d", l)
		for _, opt := range dftapprox.VariantOptions(l) {
			terms := dftapprox.Approximate(step, h, opt)
			r := comboRanking(v, terms)
			fmt.Fprintf(cfg.Out, " %14.4f", kendall(exact, r, k))
		}
		fmt.Fprintln(cfg.Out)
	}

	// Part (ii): three weight functions, two dataset sizes.
	n2 := cfg.scaled(1000000, 5000)
	d2 := datagen.IIPLike(n2, cfg.Seed+7)
	v2 := core.Prepare(d2)
	header(cfg.Out, fmt.Sprintf("Figure 8(ii) — #terms vs quality, IIP-%d and IIP-%d", n, n2))
	funcs := []struct {
		name  string
		omega func(int) float64
	}{
		{fmt.Sprintf("PT(%d)", h), step},
		{"sfunc", dftapprox.Smooth(h)},
		{"linear", dftapprox.LinearDecay(h)},
	}
	fmt.Fprintf(cfg.Out, "%10s %6s %14s %14s\n", "func", "L",
		fmt.Sprintf("Kendall n=%d", n), fmt.Sprintf("Kendall n=%d", n2))
	for _, f := range funcs {
		// All three weight functions vanish beyond h, so the exact ranking
		// is an O(n·h) PRFω(h) evaluation.
		wv := weightVector(f.omega, h)
		exact1 := pdb.RankByValue(v.PRFOmega(wv))
		exact2 := pdb.RankByValue(v2.PRFOmega(wv))
		for _, l := range []int{10, 20, 40, 80} {
			terms := dftapprox.Approximate(f.omega, h, dftapprox.DefaultOptions(l))
			r1 := comboRanking(v, terms)
			r2 := comboRanking(v2, terms)
			fmt.Fprintf(cfg.Out, "%10s %6d %14.4f %14.4f\n", f.name, l,
				kendall(exact1, r1, k), kendall(exact2, r2, k))
		}
	}
	fmt.Fprintln(cfg.Out, "\nPaper: bare DFT stays near distance 0.8; the full pipeline reaches <0.1")
	fmt.Fprintln(cfg.Out, "with ~20 terms; smooth and linear functions are easier than the step.")
	return nil
}

// weightVector samples a 0-based sequence function into a PRFω(h) weight
// vector (w[j] is the weight of rank j+1).
func weightVector(omega func(int) float64, h int) []float64 {
	w := make([]float64, h)
	for i := range w {
		w[i] = omega(i)
	}
	return w
}
