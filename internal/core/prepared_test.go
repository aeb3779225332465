package core

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/pdb"
)

// ---------------------------------------------------------------------------
// Reference implementations: verbatim copies of the pre-Prepared one-shot
// algorithms (clone + sort per call, array-of-structs scan). The prepared,
// fused, and parallel paths are required to reproduce their results
// bit-for-bit (or within 1e-12 where summation order legitimately differs).
// ---------------------------------------------------------------------------

func refSortedCopy(d *pdb.Dataset) []pdb.Tuple {
	c := d.Clone()
	if !c.Sorted() {
		c.SortByScore()
	}
	return c.Tuples()
}

func refPRFe(d *pdb.Dataset, alpha complex128) []complex128 {
	out := make([]complex128, d.Len())
	prod := complex(1, 0)
	for _, t := range refSortedCopy(d) {
		p := complex(t.Prob, 0)
		out[t.ID] = prod * p * alpha
		prod *= 1 - p + p*alpha
	}
	return out
}

func refPRFeLog(d *pdb.Dataset, alpha complex128) []float64 {
	out := make([]float64, d.Len())
	logProd := 0.0
	zeroed := false
	logAlpha := math.Log(cmplx.Abs(alpha))
	for _, t := range refSortedCopy(d) {
		switch {
		case zeroed, t.Prob == 0:
			out[t.ID] = math.Inf(-1)
		default:
			out[t.ID] = logProd + math.Log(t.Prob) + logAlpha
		}
		p := complex(t.Prob, 0)
		f := 1 - p + p*alpha
		if f == 0 {
			zeroed = true
		} else if !zeroed {
			logProd += math.Log(cmplx.Abs(f))
		}
	}
	return out
}

func refPRF(d *pdb.Dataset, omega WeightFunc) []float64 {
	n := d.Len()
	out := make([]float64, n)
	g := make([]float64, 1, n+1)
	g[0] = 1
	for i, t := range refSortedCopy(d) {
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

func refPRFOmega(d *pdb.Dataset, w []float64) []float64 {
	n := d.Len()
	h := len(w)
	out := make([]float64, n)
	g := make([]float64, 1, h+1)
	g[0] = 1
	for _, t := range refSortedCopy(d) {
		var up float64
		for j := 0; j < len(g) && j < h; j++ {
			up += w[j] * g[j]
		}
		out[t.ID] = t.Prob * up
		g = advance(g, t.Prob, h)
	}
	return out
}

func refRankDistributionTrunc(d *pdb.Dataset, h int) *pdb.RankDistribution {
	n := d.Len()
	if h > n {
		h = n
	}
	dist := make([][]float64, n)
	g := make([]float64, 1, h+1)
	g[0] = 1
	for i, t := range refSortedCopy(d) {
		rows := i + 1
		if rows > h {
			rows = h
		}
		row := make([]float64, rows)
		for j := 0; j < rows && j < len(g); j++ {
			row[j] = t.Prob * g[j]
		}
		dist[t.ID] = row
		g = advance(g, t.Prob, h)
	}
	return &pdb.RankDistribution{Dist: dist}
}

func refPRFeCombo(d *pdb.Dataset, terms []ExpTerm) []complex128 {
	n := d.Len()
	out := make([]complex128, n)
	ts := refSortedCopy(d)
	for _, term := range terms {
		prod := complex(1, 0)
		for _, t := range ts {
			p := complex(t.Prob, 0)
			out[t.ID] += term.U * prod * p * term.Alpha
			prod *= 1 - p + p*term.Alpha
		}
	}
	return out
}

func refPRFl(d *pdb.Dataset) []float64 {
	out := make([]float64, d.Len())
	prefix := 0.0
	for _, t := range refSortedCopy(d) {
		out[t.ID] = -t.Prob * (1 + prefix)
		prefix += t.Prob
	}
	return out
}

// gnarlyDataset builds a dataset exercising the awkward cases: duplicate
// scores (tie-break by ID), p = 0, p = 1, and tiny probabilities.
func gnarlyDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = float64(rng.Intn(n/2 + 1)) // many ties
		switch rng.Intn(10) {
		case 0:
			probs[i] = 0
		case 1:
			probs[i] = 1
		case 2:
			probs[i] = 1e-12
		default:
			probs[i] = rng.Float64()
		}
	}
	return pdb.MustDataset(scores, probs)
}

func randTerms(rng *rand.Rand, l int) []ExpTerm {
	terms := make([]ExpTerm, l)
	for i := range terms {
		theta := 2 * math.Pi * rng.Float64()
		r := rng.Float64()
		terms[i] = ExpTerm{
			U:     complex(rng.NormFloat64(), rng.NormFloat64()),
			Alpha: cmplx.Rect(r, theta),
		}
	}
	return terms
}

func equalFloats(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.IsInf(w, -1) || math.IsInf(g, -1) {
			if g != w {
				t.Fatalf("%s[%d]: got %v want %v", name, i, g, w)
			}
			continue
		}
		if math.Abs(g-w) > tol {
			t.Fatalf("%s[%d]: got %v want %v (|Δ|=%g)", name, i, g, w, math.Abs(g-w))
		}
	}
}

func equalComplexes(t *testing.T, name string, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s[%d]: got %v want %v (|Δ|=%g)", name, i, got[i], want[i],
				cmplx.Abs(got[i]-want[i]))
		}
	}
}

// The prepared scalar kernels must reproduce the legacy one-shot results
// bit-for-bit on random datasets with ties and edge probabilities, whether
// or not the source dataset was pre-sorted.
func TestPreparedMatchesLegacyKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(120)
		d := gnarlyDataset(rng, n+1)
		if trial%2 == 1 {
			d.SortByScore()
		}
		v := Prepare(d)
		alpha := complex(rng.Float64(), 0)
		if trial%3 == 0 {
			alpha = complex(rng.Float64(), rng.Float64()-0.5)
		}

		equalComplexes(t, "PRFe", v.PRFe(alpha), refPRFe(d, alpha), 0)
		equalFloats(t, "PRFeLog", v.PRFeLog(alpha), refPRFeLog(d, alpha), 0)
		equalFloats(t, "PRFl", v.PRFl(), refPRFl(d), 0)

		w := make([]float64, 1+rng.Intn(16))
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		equalFloats(t, "PRFOmega", v.PRFOmega(w), refPRFOmega(d, w), 0)

		omega := func(tu pdb.Tuple, rank int) float64 {
			return tu.Score / float64(rank+1)
		}
		equalFloats(t, "PRF", v.PRF(omega), refPRF(d, omega), 0)

		h := 1 + rng.Intn(n+1)
		got := v.RankDistributionTrunc(h)
		want := refRankDistributionTrunc(d, h)
		for id := 0; id < d.Len(); id++ {
			equalFloats(t, "RankDistributionTrunc row", got.Dist[id], want.Dist[id], 0)
		}
	}
}

// The parallel batch APIs must agree exactly with their serial one-at-a-time
// counterparts (each grid point is the identical scalar kernel).
func TestParallelBatchesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	d := gnarlyDataset(rng, 150)
	v := Prepare(d)

	alphas := make([]float64, 33)
	calphas := make([]complex128, len(alphas))
	for i := range alphas {
		alphas[i] = float64(i+1) / float64(len(alphas))
		calphas[i] = complex(alphas[i], 0)
	}

	logBatch := v.PRFeLogBatch(calphas)
	for a, ca := range calphas {
		equalFloats(t, "PRFeLogBatch", logBatch[a], v.PRFeLog(ca), 0)
	}

	rankBatch := queryRankBatch(t, v, alphas)
	for a, alpha := range alphas {
		want := v.RankPRFe(alpha)
		if !sameRanking(rankBatch[a], want) {
			t.Fatalf("QueryRankPRFeBatch[%d] differs from serial RankPRFe(%v)", a, alpha)
		}
	}

	k := 10
	topBatch := queryTopKBatch(t, v, alphas, k)
	for a, alpha := range alphas {
		want := v.RankPRFe(alpha).TopK(k)
		if !sameRanking(topBatch[a], want) {
			t.Fatalf("QueryTopKPRFeBatch[%d] differs from serial top-k at α=%v", a, alpha)
		}
	}

	curve := v.PRFeCurve(alphas)
	for a := range alphas {
		vals := v.PRFe(calphas[a])
		for id := range vals {
			if curve[id][a] != real(vals[id]) {
				t.Fatalf("PRFeCurve[%d][%d] = %v, want %v", id, a, curve[id][a], real(vals[id]))
			}
		}
	}

	values := make([][]float64, len(calphas))
	for i, ca := range calphas {
		values[i] = v.PRFeLog(ca)
	}
	multi := ParallelTopK(values, k)
	for q := range values {
		want := pdb.RankByValue(values[q]).TopK(k)
		if !sameRanking(multi[q], want) {
			t.Fatalf("ParallelTopK[%d] differs from serial top-k", q)
		}
	}

	if got, want := v.SpectrumSizeGrid(64), SpectrumSizeGrid(d, 64); got != want {
		t.Fatalf("SpectrumSizeGrid: prepared %d vs one-shot %d", got, want)
	}
	if got, want := v.SpectrumSize(), SpectrumSize(d); got != want {
		t.Fatalf("SpectrumSize: prepared %d vs one-shot %d", got, want)
	}
}

// The one-shot wrappers and the prepared methods must agree on the full
// ranking so existing call sites see identical answers.
func TestOneShotWrappersMatchPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	d := gnarlyDataset(rng, 90)
	v := Prepare(d)
	for _, alpha := range []float64{1e-9, 0.25, 0.5, 0.95, 1} {
		if !sameRanking(RankPRFe(d, alpha), v.RankPRFe(alpha)) {
			t.Fatalf("RankPRFe wrapper diverges at α=%v", alpha)
		}
	}
	if b1, ok1 := CrossingPoint(d, 0, d.Len()-1); ok1 {
		b2, ok2 := v.CrossingPoint(0, d.Len()-1)
		if !ok2 || b1 != b2 {
			t.Fatalf("CrossingPoint wrapper %v/%v vs prepared %v/%v", b1, ok1, b2, ok2)
		}
	}
}

// Preparing a sorted dataset and preparing its unsorted clone must yield
// the same view (same order, same kernel outputs).
func TestPrepareSortedAndUnsortedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	var scores, probs []float64
	for _, tu := range gnarlyDataset(rng, 80).Tuples() {
		scores, probs = append(scores, tu.Score), append(probs, tu.Prob)
	}
	scores[3], scores[5] = math.Copysign(0, -1), 0 // -0 ties 0
	d := pdb.MustDataset(scores, probs)
	sorted := d.Clone()
	sorted.SortByScore()
	v1, v2 := Prepare(d), Prepare(sorted)
	for i := 0; i < v1.Len(); i++ {
		if v1.ID(i) != v2.ID(i) || v1.Score(i) != v2.Score(i) || v1.Prob(i) != v2.Prob(i) {
			t.Fatalf("position %d differs: (%v,%v,%v) vs (%v,%v,%v)", i,
				v1.ID(i), v1.Score(i), v1.Prob(i), v2.ID(i), v2.Score(i), v2.Prob(i))
		}
	}
}

// The flat-backed rank-distribution matrix must hold per-row capacity so a
// row append cannot clobber its neighbor.
func TestRankDistributionRowsAreCapped(t *testing.T) {
	d := pdb.MustDataset([]float64{3, 2, 1}, []float64{0.5, 0.5, 0.5})
	rd := Prepare(d).RankDistributionTrunc(2)
	for id, row := range rd.Dist {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d != len %d (flat rows must be full-slice-capped)",
				id, cap(row), len(row))
		}
	}
}

func TestPreparedEmptyAndDegenerate(t *testing.T) {
	empty := Prepare(pdb.MustDataset(nil, nil))
	if empty.Len() != 0 {
		t.Fatalf("empty view Len = %d", empty.Len())
	}
	if got := empty.PRFeCombo(randTerms(rand.New(rand.NewSource(1)), 3)); len(got) != 0 {
		t.Fatalf("empty combo = %v", got)
	}
	if got := queryRankBatch(t, empty, []float64{0.5}); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty batch = %v", got)
	}
	one := Prepare(pdb.MustDataset([]float64{1}, []float64{0.3}))
	if got := one.PRFeCombo(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("zero-term combo = %v", got)
	}
}

// A Prepared view must be reusable concurrently: hammer the batch APIs from
// the race detector's point of view (go test -race makes this meaningful).
func TestPreparedConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	d := gnarlyDataset(rng, 200)
	v := Prepare(d)
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := v.QueryRankPRFeBatch(context.Background(), alphas); err != nil {
			t.Error(err)
		}
	}()
	v.PRFeCombo(randTerms(rng, 32))
	v.PRFeCurve(alphas)
	<-done
}
