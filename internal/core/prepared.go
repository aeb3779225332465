package core

import (
	"context"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/pdb"
)

// Prepared is an immutable, score-sorted view of a dataset, stored in
// struct-of-arrays layout (separate id/score/probability slices) so the
// generating-function kernels scan contiguous float64 memory instead of
// striding over Tuple structs. Preparing pays the O(n log n) sort exactly
// once; every kernel method afterwards is a pure scan that never clones or
// re-sorts, which is what makes repeated-query workloads (α-spectrum sweeps,
// multi-term PRFe combinations, learning loops) near-linear in practice as
// the paper's Section 4.3 analysis promises.
//
// A Prepared view is safe for concurrent use: all methods are read-only, and
// the parallel batch methods (PRFeLogBatch, PRFeCurve, QueryRankPRFeBatch,
// QueryTopKPRFeBatch) fan work out across GOMAXPROCS goroutines over the
// shared view.
type Prepared struct {
	ids    []pdb.TupleID // sorted position -> original tuple ID
	scores []float64     // non-increasing
	probs  []float64
}

// Prepare builds the sorted view of a dataset. If the dataset already
// reports Sorted, its order is taken as-is; otherwise the view sorts by
// non-increasing score with ties broken by ID — the exact order
// Dataset.SortByScore establishes. The dataset is never mutated.
func Prepare(d *pdb.Dataset) *Prepared {
	ts := d.Tuples()
	n := len(ts)
	v := &Prepared{
		ids:    make([]pdb.TupleID, n),
		scores: make([]float64, n),
		probs:  make([]float64, n),
	}
	if d.Sorted() {
		for i, t := range ts {
			v.ids[i], v.scores[i], v.probs[i] = t.ID, t.Score, t.Prob
		}
		return v
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// (score desc, ID asc) is a strict total order — IDs are unique — so the
	// unstable sort yields the same permutation as SortByScore's stable one.
	slices.SortFunc(idx, func(a, b int) int {
		return canonicalCmp(ts[a].Score, ts[a].ID, ts[b].Score, ts[b].ID)
	})
	for i, j := range idx {
		t := ts[j]
		v.ids[i], v.scores[i], v.probs[i] = t.ID, t.Score, t.Prob
	}
	return v
}

// canonicalCmp is the prepared order, the one definition every sort and
// every order check in this package uses: score descending, equal scores
// (exact.Same, so -0 ties 0) by ascending ID.
func canonicalCmp(sa float64, ia pdb.TupleID, sb float64, ib pdb.TupleID) int {
	if !exact.Same(sa, sb) {
		if sa > sb {
			return -1
		}
		return 1
	}
	if ia < ib {
		return -1
	}
	if ia > ib {
		return 1
	}
	return 0
}

// Len returns the number of tuples in the view.
func (v *Prepared) Len() int { return len(v.ids) }

// ID returns the original tuple ID at sorted position i.
func (v *Prepared) ID(i int) pdb.TupleID { return v.ids[i] }

// Score returns the score at sorted position i.
func (v *Prepared) Score(i int) float64 { return v.scores[i] }

// Prob returns the existence probability at sorted position i.
func (v *Prepared) Prob(i int) float64 { return v.probs[i] }

// Tuple reconstructs the tuple at sorted position i.
func (v *Prepared) Tuple(i int) pdb.Tuple {
	return pdb.Tuple{ID: v.ids[i], Score: v.scores[i], Prob: v.probs[i]}
}

// IDs returns the position→ID slice. Callers must not mutate it.
func (v *Prepared) IDs() []pdb.TupleID { return v.ids }

// Scores returns the sorted score slice. Callers must not mutate it.
func (v *Prepared) Scores() []float64 { return v.scores }

// Probs returns the probability slice in sorted order. Callers must not
// mutate it.
func (v *Prepared) Probs() []float64 { return v.probs }

// ExpectedWorldSize returns C = Σ p_i (summed in sorted order).
func (v *Prepared) ExpectedWorldSize() float64 {
	var c float64
	for _, p := range v.probs {
		c += p
	}
	return c
}

// ---------------------------------------------------------------------------
// Kernels (Section 4.1 / 4.3): single scans over the prepared arrays.
// ---------------------------------------------------------------------------

// RankDistribution computes the full positional-probability matrix
// (Algorithm 1, O(n²)).
func (v *Prepared) RankDistribution() *pdb.RankDistribution {
	return v.RankDistributionTrunc(v.Len())
}

// RankDistributionTrunc computes Pr(r(t)=j) for j = 1..h in O(n·h). The
// whole matrix lives in one flat backing array sliced into rows (row i holds
// min(i+1, h) entries), so the allocation count is O(1) instead of O(n).
func (v *Prepared) RankDistributionTrunc(h int) *pdb.RankDistribution {
	n := v.Len()
	if h > n {
		h = n
	}
	dist := make([][]float64, n)
	total := 0
	for i := 0; i < n; i++ {
		if i+1 < h {
			total += i + 1
		} else {
			total += h
		}
	}
	flat := make([]float64, total)
	// g holds the coefficients of G_{i−1}(x) = ∏_{l<i}(1−p_l+p_l·x),
	// truncated to degree h−1 (rank j needs coefficient j−1).
	g := make([]float64, 1, h+1)
	g[0] = 1
	off := 0
	for i := 0; i < n; i++ {
		p := v.probs[i]
		rows := i + 1
		if rows > h {
			rows = h
		}
		row := flat[off : off+rows : off+rows]
		off += rows
		for j := 0; j < rows && j < len(g); j++ {
			row[j] = p * g[j]
		}
		dist[v.ids[i]] = row
		g = advance(g, p, h)
	}
	return &pdb.RankDistribution{Dist: dist}
}

// PRF computes Υω(t) for an arbitrary weight function in O(n²) time and
// O(n) space (Equation 1). Results are indexed by TupleID.
func (v *Prepared) PRF(omega WeightFunc) []float64 {
	n := v.Len()
	out := make([]float64, n)
	g := make([]float64, 1, n+1)
	g[0] = 1
	for i := 0; i < n; i++ {
		t := v.Tuple(i)
		var up float64
		for j := 0; j <= i && j < len(g); j++ {
			if g[j] != 0 {
				up += omega(t, j+1) * g[j]
			}
		}
		out[t.ID] = t.Prob * up
		g = advance(g, t.Prob, n)
	}
	return out
}

// PRFOmega computes the PRFω(h) family for the weight vector w (w[j] weighs
// rank j+1; ranks beyond len(w) weigh zero). O(n·h) on the prepared view.
func (v *Prepared) PRFOmega(w []float64) []float64 {
	n := v.Len()
	h := len(w)
	out := make([]float64, n)
	g := make([]float64, 1, h+1)
	g[0] = 1
	for i := 0; i < n; i++ {
		p := v.probs[i]
		var up float64
		for j := 0; j < len(g) && j < h; j++ {
			up += w[j] * g[j]
		}
		out[v.ids[i]] = p * up
		g = advance(g, p, h)
	}
	return out
}

// PTh computes Pr(r(t) ≤ h) — the PT(h) ranking function — in O(n·h).
func (v *Prepared) PTh(h int) []float64 { return v.PRFOmega(PTWeights(h)) }

// PRFe evaluates Υ_α(t) with a single scan (Section 4.3, Equation 3): O(n)
// on the prepared view. See PRFeLog for the underflow-free form at scale.
func (v *Prepared) PRFe(alpha complex128) []complex128 {
	out := make([]complex128, v.Len())
	prod := complex(1, 0)
	for i := range v.probs {
		p := complex(v.probs[i], 0)
		out[v.ids[i]] = prod * p * alpha
		prod *= 1 - p + p*alpha
	}
	return out
}

// PRFeLog evaluates log|Υ_α(t)|, the numerically robust form of PRFe for
// ranking (summed log-magnitudes never underflow). Tuples with Υ = 0 get
// -Inf. O(n) on the prepared view.
func (v *Prepared) PRFeLog(alpha complex128) []float64 {
	return v.PRFeLogInto(alpha, nil)
}

// PRFeLogInto is PRFeLog writing into out (reallocated only when its
// capacity is short) — the allocation-free form the batch paths use to keep
// one value buffer per worker across an entire query batch.
func (v *Prepared) PRFeLogInto(alpha complex128, out []float64) []float64 {
	if cap(out) < v.Len() {
		out = make([]float64, v.Len())
	}
	out = out[:v.Len()]
	logProd := 0.0
	zeroed := false // a factor of exactly 0 annihilates all later products
	logAlpha := math.Log(cmplx.Abs(alpha))
	for i := range v.probs {
		pr := v.probs[i]
		switch {
		case zeroed, pr == 0:
			out[v.ids[i]] = math.Inf(-1)
		default:
			out[v.ids[i]] = logProd + math.Log(pr) + logAlpha
		}
		p := complex(pr, 0)
		f := 1 - p + p*alpha
		if f == 0 {
			zeroed = true
		} else if !zeroed {
			logProd += math.Log(cmplx.Abs(f))
		}
	}
	return out
}

// RankPRFe returns the full PRFe(α) ranking for real α via the log-space
// evaluation.
func (v *Prepared) RankPRFe(alpha float64) pdb.Ranking {
	return pdb.RankByValue(v.PRFeLog(complex(alpha, 0)))
}

// ERank returns E[r(t)] for every tuple (the Cormode et al. convention:
// absent tuples take rank |pw|) with one prefix-sum scan over the prepared
// view — the Section 3.3 closed form er1 + er2. baselines.ERankPrepared is
// a thin wrapper over this kernel.
func (v *Prepared) ERank() []float64 {
	out := make([]float64, v.Len())
	c := v.ExpectedWorldSize()
	prefix := 0.0
	for i := 0; i < v.Len(); i++ {
		p := v.probs[i]
		er1 := p * (1 + prefix)
		er2 := (1 - p) * (c - p)
		out[v.ids[i]] = er1 + er2
		prefix += p
	}
	return out
}

// ExpectedRank returns the consensus expected rank (the Li/Deshpande
// convention: absent tuples take rank |pw|+1). On every correlation model it
// exceeds the Cormode-convention ERank by exactly Pr(t absent), since the
// conventions differ by one on each world missing t — so the kernel is the
// ERank scan plus a per-tuple (1−p) shift.
func (v *Prepared) ExpectedRank() []float64 {
	out := v.ERank()
	for i := 0; i < v.Len(); i++ {
		out[v.ids[i]] += 1 - v.probs[i]
	}
	return out
}

// MedianRank returns the consensus median rank per tuple: the smallest j
// with Pr(r(t) ≤ j) ≥ 1/2 under the absent-→-∞ convention, or the sentinel
// n+1 when the tuple is absent from a majority of worlds. One generating-
// function scan with an early-exit cumulative fold per tuple: O(n²) worst
// case, O(n) space (the full rank-distribution matrix is never
// materialized).
//
// The fold's total is p times the generating function's mass, which
// rounding can leave just below 1, so at p = 1/2 it may never reach 1/2.
// The exact answer there is the largest rank the tuple can take, one past
// the count of higher-scored tuples with p > 0 (its cumulative mass is p
// only once every such tuple can be present), kept as a running count.
func (v *Prepared) MedianRank() []float64 {
	n := v.Len()
	out := make([]float64, n)
	g := make([]float64, 1, n+1)
	g[0] = 1
	possible := 0 // higher-scored tuples with p > 0
	for i := 0; i < n; i++ {
		p := v.probs[i]
		med := pdb.MedianRankSentinel(n)
		if p > 0 {
			cum := 0.0
			for j := 0; j < len(g); j++ {
				cum += p * g[j]
				if cum >= 0.5 {
					med = float64(j + 1)
					break
				}
			}
			if cum < 0.5 && p >= 0.5 {
				med = float64(possible + 1)
			}
			possible++
		}
		out[v.ids[i]] = med
		g = advance(g, p, n)
	}
	return out
}

// PRFl evaluates the PRFℓ special case ω(i) = −i via one prefix-sum scan.
func (v *Prepared) PRFl() []float64 {
	out := make([]float64, v.Len())
	prefix := 0.0
	for i := range v.probs {
		p := v.probs[i]
		out[v.ids[i]] = -p * (1 + prefix)
		prefix += p
	}
	return out
}

// PRFeCombo evaluates Υ(t) = Σ_l u_l·Υ_{α_l}(t) — the linear combination of
// PRFe functions approximating an arbitrary PRFω (Section 5.1) — in a single
// fused pass: all L running products advance together through one scan of
// the data, so the tuple arrays are read once instead of L times. O(n·L)
// arithmetic, O(n) memory traffic. Values are identical (bit-for-bit) to
// evaluating the terms in separate scans and summing per tuple in term
// order (coreref.PRFeComboMultiPass is that per-term reference).
func (v *Prepared) PRFeCombo(terms []ExpTerm) []complex128 {
	n := v.Len()
	out := make([]complex128, n)
	l := len(terms)
	if l == 0 {
		return out
	}
	prods := make([]complex128, l)
	us := make([]complex128, l)
	alphas := make([]complex128, l)
	for j, term := range terms {
		prods[j] = 1
		us[j] = term.U
		alphas[j] = term.Alpha
	}
	for i := range v.probs {
		p := complex(v.probs[i], 0)
		var sum complex128
		for j := 0; j < l; j++ {
			sum += us[j] * prods[j] * p * alphas[j]
			prods[j] *= 1 - p + p*alphas[j]
		}
		out[v.ids[i]] = sum
	}
	return out
}

// CrossingPoint finds the unique β ∈ (0,1) at which the tuples at sorted
// positions i < j swap their PRFe order, if any (Theorem 4). See the
// package-level CrossingPoint for the contract.
//
// log ρ(α) is monotone increasing, so existence reduces to sign checks at
// the two ends — and the right end is the O(1) closed form
// log ρ(1) = log p_j − log p_i, hoisted out of the iteration entirely. The
// root itself is found by safeguarded Newton steps where each iteration is a
// single incremental pass over the span (see logRhoDirect), instead of the
// former fixed-count bisection that re-walked the span and recomputed the
// α-independent log(p_j)−log(p_i) on every probe (kept as
// coreref.CrossingPoint for equivalence tests and benchmarks). Pairs with
// p_i = p_j exactly are reported as non-crossing: their curves meet only at
// the boundary α = 1, not inside (0,1).
func (v *Prepared) CrossingPoint(i, j int) (float64, bool) {
	if i == j {
		return 0, false
	}
	if i > j {
		i, j = j, i
	}
	pi, pj := v.probs[i], v.probs[j]
	if pi <= 0 || pj <= 0 {
		return 0, false
	}
	logDiff := math.Log(pj) - math.Log(pi)
	if !(logDiff > 0) {
		return 0, false // ρ(1) ≤ 1: position j never overtakes i in (0,1)
	}
	glo, _ := logRhoDirect(v.probs, i, j, logDiff, crossEps, false)
	if glo >= 0 {
		return 0, false // ρ > 1 across all of (0,1): j dominates throughout
	}
	return newtonRootDirect(v.probs, i, j, logDiff, crossEps, 1), true
}

// newtonRootDirect is the safeguarded Newton iteration over the direct
// evaluator, for one-off crossing queries outside a Sweep (which carries
// its own evaluation state; see Sweep.newton).
func newtonRootDirect(probs []float64, i, j int, logDiff, lo, hi float64) float64 {
	x := 0.5 * (lo + hi)
	for iter := 0; iter < 80 && hi-lo > 1e-14; iter++ {
		g, dg := logRhoDirect(probs, i, j, logDiff, x, true)
		if g == 0 {
			return x
		}
		if g < 0 {
			lo = x
		} else {
			hi = x
		}
		if dg > 0 {
			if nx := x - g/dg; nx > lo && nx < hi {
				if math.Abs(nx-x) <= 1e-14 {
					return nx // converged; the far bracket side may still be distant
				}
				x = nx
				continue
			}
		}
		x = 0.5 * (lo + hi)
	}
	return 0.5 * (lo + hi)
}

// ---------------------------------------------------------------------------
// Parallel batch evaluation over the shared immutable view.
// ---------------------------------------------------------------------------

// parallelWorkers, parallelForWorkers and parallelFor are thin aliases over
// internal/par, the fan-out primitive shared with the correlated-data
// prepared engines (andxor.PreparedTree, junction.PreparedNetwork).
func parallelWorkers(jobs int) int { return par.Workers(jobs) }

func parallelForWorkers(workers, jobs int, fn func(worker, job int)) {
	par.ForWorkers(workers, jobs, fn)
}

func parallelFor(jobs int, fn func(j int)) { par.For(jobs, fn) }

// PRFeLogBatch evaluates PRFeLog for every α in parallel. out[a] is indexed
// by TupleID, exactly as PRFeLog(alphas[a]) would return.
func (v *Prepared) PRFeLogBatch(alphas []complex128) [][]float64 {
	out := make([][]float64, len(alphas))
	parallelFor(len(alphas), func(a int) {
		out[a] = v.PRFeLog(alphas[a])
	})
	return out
}

// rankPRFeParallelCtx evaluates each α independently across GOMAXPROCS
// workers — QueryRankPRFeBatch's arm for batches that are not monotone α
// grids. Each worker owns one value buffer for its whole share of the
// batch, so the per-query allocations are the output rankings alone.
func (v *Prepared) rankPRFeParallelCtx(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	out := make([]pdb.Ranking, len(alphas))
	workers := par.Workers(len(alphas))
	vals := make([][]float64, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		vals[w] = v.PRFeLogInto(complex(alphas[a], 0), vals[w])
		out[a] = pdb.RankByValue(vals[w])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PRFeCurve evaluates Υ_α(t) over a grid of real α values: curve[id][a] is
// the (real) PRFe value of tuple id at alphas[a] (Figure 6 / Example 7).
// The grid is split across GOMAXPROCS workers and each worker advances all
// its running products through one fused scan of the tuple arrays — the
// data is read once per worker instead of once per grid point. The matrix
// is one flat allocation; values are bit-identical to per-α PRFe.
func (v *Prepared) PRFeCurve(alphas []float64) [][]float64 {
	n := v.Len()
	m := len(alphas)
	out := make([][]float64, n)
	flat := make([]float64, n*m)
	for i := range out {
		out[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	if n == 0 || m == 0 {
		return out
	}
	workers := parallelWorkers(m)
	per := (m + workers - 1) / workers
	parallelFor(workers, func(w int) {
		lo := w * per
		hi := lo + per
		if hi > m {
			hi = m
		}
		if lo >= hi {
			return
		}
		as := alphas[lo:hi]
		prods := make([]float64, len(as))
		for c := range prods {
			prods[c] = 1
		}
		for i, p := range v.probs {
			row := out[v.ids[i]]
			for c, a := range as {
				row[lo+c] = prods[c] * p * a
				prods[c] *= 1 - p + p*a
			}
		}
	})
	return out
}

// ParallelTopK ranks many independent value vectors (each indexed by
// TupleID) and returns the top-k of each, fanning out across GOMAXPROCS
// goroutines. The generic multi-query helper behind batch ranking.
func ParallelTopK(valueBatch [][]float64, k int) []pdb.Ranking {
	out := make([]pdb.Ranking, len(valueBatch))
	parallelFor(len(valueBatch), func(q int) {
		out[q] = pdb.RankByValue(valueBatch[q]).TopK(k)
	})
	return out
}
