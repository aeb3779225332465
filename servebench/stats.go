package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sample is one timed read: its request class, its cost class and its
// latency. In explore-cold the cost class is the request class; in the
// panel workloads it is "hit", or "rewarm-<class>" in the first pass after
// a refresh.
type sample struct {
	class, cost string
	ms          float64
}

// classP50 is the median latency of one class (0 when it has no samples).
func classP50(ss []sample, class string) float64 {
	var xs []float64
	for _, s := range ss {
		if s.class == class {
			xs = append(xs, s.ms)
		}
	}
	return median(xs)
}

// percentileClass reports the latency at quantile q over all reads, the
// cost class of the sample at that rank, and the share of the samples
// within two percentage points of that rank that belong to the same cost
// class — 1.0 means the percentile sits well inside one cost class.
func percentileClass(sorted []sample, q float64) (ms float64, class string, purity float64) {
	n := len(sorted)
	if n == 0 {
		return 0, "", 0
	}
	i := min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
	lo, hi := max(i-n/50, 0), min(i+n/50, n-1)
	same := 0
	for j := lo; j <= hi; j++ {
		if sorted[j].cost == sorted[i].cost {
			same++
		}
	}
	return sorted[i].ms, sorted[i].cost, float64(same) / float64(hi-lo+1)
}

// printHistogram writes per-class sample counts and a log2 latency
// histogram (bucket upper bounds in ms) for one workload's reads.
func printHistogram(w io.Writer, ss []sample) {
	counts := map[string]int{}
	var classes []string
	for _, s := range ss {
		if counts[s.class] == 0 {
			classes = append(classes, s.class)
		}
		counts[s.class]++
	}
	sort.Strings(classes)
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s=%d", c, counts[c])
	}
	fmt.Fprintf(w, "# samples: %d reads (%s)\n", len(ss), strings.Join(parts, " "))
	type bucket map[string]int
	hist := map[int]bucket{}
	lo, hi := math.MaxInt, math.MinInt
	for _, s := range ss {
		b := int(math.Ceil(math.Log2(math.Max(s.ms, 1e-3) * 1000))) // log2 µs
		if hist[b] == nil {
			hist[b] = bucket{}
		}
		hist[b][s.class]++
		lo, hi = min(lo, b), max(hi, b)
	}
	for b := lo; b <= hi && len(ss) > 0; b++ {
		var row []string
		for _, c := range classes {
			if n := hist[b][c]; n > 0 {
				row = append(row, fmt.Sprintf("%s=%d", c, n))
			}
		}
		fmt.Fprintf(w, "#   <= %10.3f ms  %s\n", math.Exp2(float64(b))/1000, strings.Join(row, " "))
	}
}
