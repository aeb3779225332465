package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/junction"
	"repro/internal/pdb"
)

func init() {
	register("table3",
		"Table 3: empirical scaling check of the complexity summary (doubling experiment with fitted growth exponents)",
		runTable3)
}

// fitExponent estimates b in t ≈ a·n^b by least squares on log-log points.
func fitExponent(ns []int, ts []time.Duration) float64 {
	var sx, sy, sxx, sxy float64
	m := float64(len(ns))
	for i := range ns {
		x := math.Log(float64(ns[i]))
		y := math.Log(ts[i].Seconds() + 1e-9)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (m*sxy - sx*sy) / (m*sxx - sx*sx)
}

func runTable3(_ context.Context, cfg Config) error {
	header(cfg.Out, "Table 3 — empirical scaling of the ranking algorithms")
	fmt.Fprintf(cfg.Out, "%-34s %-14s %-10s %s\n", "algorithm", "paper bound", "fitted n^b", "times")

	type algo struct {
		name  string
		bound string
		sizes []int
		run   func(n int)
	}
	mk := func(n int) *pdb.Dataset {
		d := datagen.SynIND(n, cfg.Seed)
		d.SortByScore()
		return d
	}
	algos := []algo{
		{
			name: "IND PRFe (Alg. 3 via Eq. 3)", bound: "O(n log n)",
			sizes: []int{20000, 40000, 80000, 160000},
			run:   func(n int) { core.PRFeLog(mk(n), complex(0.9, 0)) },
		},
		{
			name: "IND PRFω(h=100)", bound: "O(n·h)",
			sizes: []int{20000, 40000, 80000, 160000},
			run:   func(n int) { core.PTh(mk(n), 100) },
		},
		{
			name: "IND full PRF (Alg. 1)", bound: "O(n²)",
			sizes: []int{500, 1000, 2000, 4000},
			run: func(n int) {
				core.PRF(mk(n), func(_ pdb.Tuple, i int) float64 { return 1 / float64(i) })
			},
		},
		{
			name: "And/Xor PRFe incremental (Alg. 3)", bound: "O(Σdᵢ + n log n)",
			sizes: []int{10000, 20000, 40000, 80000},
			run: func(n int) {
				tree, err := datagen.SynMED(n, cfg.Seed)
				if err == nil {
					andxor.PRFeValues(tree, complex(0.9, 0))
				}
			},
		},
		{
			name: "And/Xor PRFe naive re-evaluation", bound: "O(n²)",
			sizes: []int{250, 500, 1000, 2000},
			run: func(n int) {
				tree, err := datagen.SynMED(n, cfg.Seed)
				if err == nil {
					andxor.PRFeValuesNaive(tree, complex(0.9, 0))
				}
			},
		},
		{
			name: "And/Xor PRFω(h=50) (Alg. 2)", bound: "O(n²·h) worst",
			sizes: []int{250, 500, 1000},
			run: func(n int) {
				tree, err := datagen.SynMED(n, cfg.Seed)
				if err == nil {
					andxor.PTh(tree, 50)
				}
			},
		},
		{
			name: "Chain PRFe product tree (prepared)", bound: "O(n log n)",
			sizes: []int{4000, 8000, 16000, 32000},
			run: func(n int) {
				junction.PrepareChain(datagen.MarkovChainLike(n, cfg.Seed)).PRFe(complex(0.9, 0))
			},
		},
		{
			name: "Chain PRFe partial-sum DP (§9.3)", bound: "O(n³)",
			sizes: []int{50, 100, 200, 400},
			run: func(n int) {
				junction.PRFeChainDP(datagen.MarkovChainLike(n, cfg.Seed), complex(0.9, 0))
			},
		},
	}
	for _, a := range algos {
		sizes := make([]int, len(a.sizes))
		for i, s := range a.sizes {
			sizes[i] = cfg.scaled(s, 100)
		}
		times := make([]time.Duration, len(sizes))
		rows := ""
		for i, n := range sizes {
			times[i] = timeIt(func() { a.run(n) })
			rows += fmt.Sprintf(" %d:%s", n, fmtDur(times[i]))
		}
		fmt.Fprintf(cfg.Out, "%-34s %-14s %-10.2f%s\n", a.name, a.bound, fitExponent(sizes, times), rows)
	}
	fmt.Fprintln(cfg.Out, "\nThe fitted exponents should track the paper's bounds: ≈1 for the")
	fmt.Fprintln(cfg.Out, "(near-)linear algorithms, ≈2 for the quadratic ones. Generation time is")
	fmt.Fprintln(cfg.Out, "excluded from none of the tree rows (dominated by ranking at these sizes).")
	return nil
}
