// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3.2 Table 1, Section 5.1 Figures 4–5, Section 7
// Figure 6, Section 8 Figures 7–11) plus an empirical check of the Table 3
// complexity summary.
//
// Each experiment is registered by its paper id ("table1", "fig7", …) and
// prints the same rows/series the paper reports. Dataset sizes default to
// the paper's, multiplied by Config.Scale so the full suite can run in CI;
// EXPERIMENTS.md records paper-vs-measured results for both scaled and
// spot-checked paper-scale runs.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/pdb"
	"repro/internal/rankdist"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Scale multiplies the paper's dataset sizes (1.0 = paper scale).
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
}

// scaled returns max(lo, round(base·Scale)).
func (c Config) scaled(base, lo int) int {
	n := int(float64(base) * c.Scale)
	if n < lo {
		n = lo
	}
	return n
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	// ID is the registry key ("table1", "fig4", …).
	ID string
	// Paper describes the artifact being reproduced.
	Paper string
	// Run executes the experiment; ctx bounds the engine queries it runs.
	Run func(ctx context.Context, cfg Config) error
}

var registry []Experiment

func register(id, paper string, run func(ctx context.Context, cfg Config) error) {
	registry = append(registry, Experiment{ID: id, Paper: paper, Run: run})
}

// All returns the registered experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// mustRanking unwraps a (Ranking, error) pair from the consensus
// baselines; every experiment queries well-formed synthetic data, so an
// error here is a bug, not an input condition.
func mustRanking(r pdb.Ranking, err error) pdb.Ranking {
	pdb.MustNoErr(err)
	return r
}

// kendall is shorthand for the normalized Kendall top-k distance.
func kendall(a, b pdb.Ranking, k int) float64 {
	return rankdist.KendallTopK(a.TopK(k), b.TopK(k), k)
}

// timeIt runs f once and returns the wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// matrix prints a labeled symmetric distance matrix.
func matrix(w io.Writer, labels []string, dist [][]float64) {
	fmt.Fprintf(w, "%-10s", "")
	for _, l := range labels {
		fmt.Fprintf(w, "%10s", l)
	}
	fmt.Fprintln(w)
	for i, l := range labels {
		fmt.Fprintf(w, "%-10s", l)
		for j := range labels {
			if i == j {
				fmt.Fprintf(w, "%10s", "-")
			} else {
				fmt.Fprintf(w, "%10.4f", dist[i][j])
			}
		}
		fmt.Fprintln(w)
	}
}

// sampleIndices draws m distinct indices from [0, n) deterministically.
func sampleIndices(n, m int, seed int64) []int {
	if m > n {
		m = n
	}
	perm := permFromSeed(n, seed)
	idx := perm[:m]
	out := make([]int, m)
	copy(out, idx)
	sort.Ints(out)
	return out
}

// permFromSeed is rand.Perm with a local source (kept tiny to avoid
// importing math/rand everywhere).
func permFromSeed(n int, seed int64) []int {
	// xorshift-based Fisher-Yates; deterministic and dependency-free.
	state := uint64(seed)*2685821657736338717 + 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// fmtDur prints a duration in seconds with 3 decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// logGrid returns the α values 1−0.9^i for i = 0, step, 2·step, … count
// points (the Figure 7 x-axis).
func logGrid(count, step int) ([]int, []float64) {
	is := make([]int, count)
	alphas := make([]float64, count)
	for j := 0; j < count; j++ {
		i := j * step
		is[j] = i
		alphas[j] = 1 - math.Pow(0.9, float64(i))
		if alphas[j] == 0 {
			// α=0 exactly zeroes every Υ; use the α→0 limit instead,
			// which ranks by Pr(r(t)=1) (footnote 8 of the paper).
			alphas[j] = 1e-12
		}
	}
	return is, alphas
}
