package experiments

import (
	"context"
	"fmt"

	"repro/internal/dftapprox"
)

func init() {
	register("fig4",
		"Figure 4: effect of the DFT adaptation steps on approximating the step function (N=1000, L=20)",
		runFig4)
	register("fig5",
		"Figure 5: approximating step / linear / smooth weight functions with increasing numbers of exponentials",
		runFig5)
}

func runFig4(_ context.Context, cfg Config) error {
	n := cfg.scaled(1000, 100)
	const l = 20
	omega := dftapprox.Step(n)
	header(cfg.Out, fmt.Sprintf("Figure 4 — step function N=%d, L=%d", n, l))
	variants := dftapprox.VariantOptions(l)
	allTerms := make([][]dftapprox.Term, len(variants))
	for v, opt := range variants {
		allTerms[v] = dftapprox.Approximate(omega, n, opt)
	}
	// Print the approximation series at a coarse grid over [0, 2.5N], the
	// paper's plotted range.
	fmt.Fprintf(cfg.Out, "%8s %10s", "x", "w(x)")
	for _, name := range dftapprox.VariantNames {
		fmt.Fprintf(cfg.Out, " %14s", name)
	}
	fmt.Fprintln(cfg.Out)
	for _, frac := range []float64{0, 0.02, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0, 1.05, 1.5, 2.0, 2.2, 2.5} {
		x := int(frac * float64(n))
		fmt.Fprintf(cfg.Out, "%8d %10.3f", x, omega(x))
		for v := range variants {
			fmt.Fprintf(cfg.Out, " %14.4f", dftapprox.Eval(allTerms[v], x))
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintf(cfg.Out, "%19s", "MSE over [0,2.5N]:")
	for v := range variants {
		fmt.Fprintf(cfg.Out, " %14.5f", dftapprox.MeanSquaredError(omega, allTerms[v], n*5/2))
	}
	fmt.Fprintln(cfg.Out)
	fmt.Fprintln(cfg.Out, "\nPaper: bare DFT is periodic; DF kills the periodicity but biases the")
	fmt.Fprintln(cfg.Out, "plateau; IS removes the bias; ES repairs the boundary near x=0.")
	return nil
}

func runFig5(_ context.Context, cfg Config) error {
	n := cfg.scaled(1000, 100)
	funcs := []struct {
		name  string
		omega func(int) float64
		ls    []int
	}{
		{"step", dftapprox.Step(n), []int{10, 20, 30, 50, 100}},
		{"linear", dftapprox.LinearDecay(n), []int{5, 10, 20, 50}},
		{"smooth", dftapprox.Smooth(n), []int{10, 20, 30, 50}},
	}
	header(cfg.Out, fmt.Sprintf("Figure 5 — approximation error vs number of exponentials (N=%d)", n))
	fmt.Fprintf(cfg.Out, "%8s %6s %12s %12s\n", "func", "L", "MSE", "maxErr")
	for _, f := range funcs {
		// Normalize the error scale for the linear function (amplitude N).
		amp := 1.0
		if f.name == "linear" {
			amp = float64(n)
		}
		for _, l := range f.ls {
			terms := dftapprox.Approximate(f.omega, n, dftapprox.DefaultOptions(l))
			mse := dftapprox.MeanSquaredError(f.omega, terms, 2*n) / (amp * amp)
			maxe := dftapprox.MaxAbsError(f.omega, terms, 2*n) / amp
			fmt.Fprintf(cfg.Out, "%8s %6d %12.6f %12.6f\n", f.name, l, mse, maxe)
		}
	}
	fmt.Fprintln(cfg.Out, "\nPaper: smooth and linear functions need far fewer exponentials than the")
	fmt.Fprintln(cfg.Out, "discontinuous step function; error decreases with L for all three.")
	return nil
}
