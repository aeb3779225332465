package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pdb"
)

// refRankings is the per-α reference the kinetic sweep is pinned against:
// an independent PRFeLog evaluation and full re-sort at every grid point.
func refRankings(v *Prepared, alphas []float64) []pdb.Ranking {
	out := make([]pdb.Ranking, len(alphas))
	for a, alpha := range alphas {
		out[a] = v.RankPRFe(alpha)
	}
	return out
}

// queryRankBatch and queryTopKBatch run the engine's batch entry points with
// a background context, failing the test on any error.
func queryRankBatch(t *testing.T, v *Prepared, alphas []float64) []pdb.Ranking {
	t.Helper()
	out, err := v.QueryRankPRFeBatch(context.Background(), alphas)
	if err != nil {
		t.Fatalf("QueryRankPRFeBatch: %v", err)
	}
	return out
}

func queryTopKBatch(t *testing.T, v *Prepared, alphas []float64, k int) []pdb.Ranking {
	t.Helper()
	out, err := v.QueryTopKPRFeBatch(context.Background(), alphas, k)
	if err != nil {
		t.Fatalf("QueryTopKPRFeBatch: %v", err)
	}
	return out
}

// duplicateHeavyDataset stresses the tie handling: a small score alphabet
// and a small probability alphabet, so many tuples are exact (score, prob)
// duplicates of each other and whole value curves coincide.
func duplicateHeavyDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	probAlphabet := []float64{0, 0.2, 0.5, 0.5, 0.8, 1}
	for i := 0; i < n; i++ {
		scores[i] = float64(rng.Intn(4))
		probs[i] = probAlphabet[rng.Intn(len(probAlphabet))]
	}
	return pdb.MustDataset(scores, probs)
}

// nearTieDataset makes almost all probabilities coincide up to tiny noise,
// which piles Θ(n²) crossings just below α = 1 — the event-storm shape that
// exercises the sweep's bounded-advance rebuild fallback.
func nearTieDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64() * 1000
		probs[i] = 0.6 + 1e-9*rng.NormFloat64()
	}
	return pdb.MustDataset(scores, probs)
}

func sweepGrids(rng *rand.Rand) [][]float64 {
	uniform := func(m int, includeOne bool) []float64 {
		g := make([]float64, m)
		for i := range g {
			g[i] = float64(i+1) / float64(m+1)
		}
		if includeOne {
			g[m-1] = 1
		}
		return g
	}
	logg := make([]float64, 24)
	for i := range logg {
		logg[i] = 1 - math.Pow(0.82, float64(i+1))
	}
	irregular := make([]float64, 17)
	for i := range irregular {
		irregular[i] = rng.Float64()
	}
	sort.Float64s(irregular)
	for i := range irregular {
		if irregular[i] == 0 {
			irregular[i] = 1e-6
		}
	}
	// Strictness: random draws are distinct with probability 1, but guard.
	for i := 1; i < len(irregular); i++ {
		if irregular[i] <= irregular[i-1] {
			irregular[i] = irregular[i-1] + 1e-9
		}
	}
	return [][]float64{
		uniform(33, false),
		uniform(16, true), // ends exactly at α = 1
		{0.5, 0.9},        // minimal grid
		logg,
		irregular,
	}
}

// TestSweepMatchesReferenceEverywhere is the equivalence suite of the
// kinetic engine: on adversarial datasets (score ties, zero and unit
// probabilities, exact duplicates, near-tied probabilities) and a variety of
// grids, the sweep's ranking at every grid point must be bit-for-bit the
// per-α re-sort reference.
func TestSweepMatchesReferenceEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	shapes := []struct {
		name string
		mk   func(*rand.Rand, int) *pdb.Dataset
	}{
		{"gnarly", gnarlyDataset},
		{"duplicate-heavy", duplicateHeavyDataset},
		{"near-tie", nearTieDataset},
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 2, 3, 17, 64, 257, 600} {
			d := shape.mk(rng, n)
			v := Prepare(d)
			for gi, alphas := range sweepGrids(rng) {
				got, err := v.RankPRFeSweep(context.Background(), alphas)
				if err != nil {
					t.Fatalf("%s n=%d grid=%d: RankPRFeSweep: %v", shape.name, n, gi, err)
				}
				want := refRankings(v, alphas)
				for a := range alphas {
					if !sameRanking(got[a], want[a]) {
						t.Fatalf("%s n=%d grid=%d: sweep ranking differs from reference at α=%v",
							shape.name, n, gi, alphas[a])
					}
				}
				k := n/3 + 1
				gotK, err := v.TopKPRFeSweep(context.Background(), alphas, k)
				if err != nil {
					t.Fatalf("%s n=%d grid=%d: TopKPRFeSweep: %v", shape.name, n, gi, err)
				}
				for a := range alphas {
					if !sameRanking(gotK[a], want[a].TopK(k)) {
						t.Fatalf("%s n=%d grid=%d: sweep top-%d differs at α=%v",
							shape.name, n, gi, k, alphas[a])
					}
				}
			}
		}
	}
}

// TestBatchDispatchersMatchReference checks both dispatcher arms: monotone
// grids (kinetic) and non-monotone batches (parallel per-α) must all equal
// the serial reference bit-for-bit.
func TestBatchDispatchersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := gnarlyDataset(rng, 150)
	v := Prepare(d)
	batches := [][]float64{
		{0.1, 0.2, 0.4, 0.8, 1.0}, // kinetic
		{0.9, 0.1, 0.5, 0.5, 0.2}, // unsorted + duplicate → parallel
		{0.3},                     // single query → parallel
		{0.2, 0.2, 0.4},           // non-strict → parallel
		{1e-12, 0.999999999, 1.0}, // extreme grid → kinetic
		{0.5, 1.5},                // out of range → parallel
	}
	for bi, alphas := range batches {
		got := queryRankBatch(t, v, alphas)
		for a, alpha := range alphas {
			if !sameRanking(got[a], v.RankPRFe(alpha)) {
				t.Fatalf("batch %d: QueryRankPRFeBatch differs at α=%v", bi, alpha)
			}
		}
		gotK := queryTopKBatch(t, v, alphas, 7)
		for a, alpha := range alphas {
			if !sameRanking(gotK[a], v.RankPRFe(alpha).TopK(7)) {
				t.Fatalf("batch %d: QueryTopKPRFeBatch differs at α=%v", bi, alpha)
			}
		}
	}
	// An empty batch has no grid point to answer and is rejected by both.
	if _, err := v.QueryRankPRFeBatch(context.Background(), nil); !errors.Is(err, pdb.ErrEmptyGrid) {
		t.Fatalf("empty rank batch: err = %v, want ErrEmptyGrid", err)
	}
	if _, err := v.QueryTopKPRFeBatch(context.Background(), nil, 7); !errors.Is(err, pdb.ErrEmptyGrid) {
		t.Fatalf("empty top-k batch: err = %v, want ErrEmptyGrid", err)
	}
}

// TestSweepManualAdvance drives a Sweep by hand through AdvanceTo/RankingAt
// and checks monotonicity enforcement.
func TestSweepManualAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := Prepare(gnarlyDataset(rng, 120))
	s := v.NewSweep(0.05)
	if s.Alpha() != 0.05 || s.Len() != 120 {
		t.Fatalf("fresh sweep state: alpha=%v len=%d", s.Alpha(), s.Len())
	}
	for _, alpha := range []float64{0.05, 0.3, 0.3, 0.77, 1} {
		r, err := s.RankingAt(alpha)
		if err != nil {
			t.Fatalf("RankingAt(%v): %v", alpha, err)
		}
		if !sameRanking(r, v.RankPRFe(alpha)) {
			t.Fatalf("manual sweep differs at α=%v", alpha)
		}
	}
	if s.Crossings() < s.DistinctCrossingTimes() {
		t.Fatalf("crossings %d < distinct times %d", s.Crossings(), s.DistinctCrossingTimes())
	}
	if err := s.AdvanceTo(0.5); err == nil {
		t.Fatal("moving a sweep backwards must error")
	}
	if err := s.AdvanceTo(1.5); err == nil {
		t.Fatal("advancing beyond α = 1 must error")
	}
	if _, err := s.RankingAt(0.2); err == nil {
		t.Fatal("querying behind the cursor must error")
	}
}

// TestSpectrumSizeExactDominatesGrid: the sampled spectrum can only miss
// rankings, never invent them, and a sufficiently dense grid converges to
// the exact count.
func TestSpectrumSizeExactDominatesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, n := range []int{6, 10, 20} {
		d := gnarlyDataset(rng, n)
		v := Prepare(d)
		exact := v.SpectrumSize()
		for _, g := range []int{5, 50, 500} {
			if grid := v.SpectrumSizeGrid(g); grid > exact {
				t.Fatalf("n=%d: grid(%d) spectrum %d exceeds exact %d", n, g, grid, exact)
			}
		}
		if dense := v.SpectrumSizeGrid(2_000_000); dense != exact {
			t.Fatalf("n=%d: dense grid %d != exact %d", n, v.SpectrumSizeGrid(2_000_000), exact)
		}
	}
}

// TestSweepSeriesEvaluatorAgainstDirect forces long-span crossings at large
// α (where the sweep picks the prefix-power-sum series) and checks the
// resulting event times against the direct evaluator through the public
// equivalence: rankings must still match the reference at a fine grid.
func TestSweepSeriesEvaluatorAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(246))
	n := 500
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64() * 100
		probs[i] = 0.05 + 0.9*rng.Float64()
	}
	v := Prepare(pdb.MustDataset(scores, probs))
	alphas := make([]float64, 60)
	for i := range alphas {
		alphas[i] = 0.55 + 0.45*float64(i+1)/float64(len(alphas)) // α ∈ (0.55, 1]
	}
	got, err := v.RankPRFeSweep(context.Background(), alphas)
	if err != nil {
		t.Fatalf("RankPRFeSweep: %v", err)
	}
	for a, alpha := range alphas {
		if !sameRanking(got[a], v.RankPRFe(alpha)) {
			t.Fatalf("series-path sweep differs from reference at α=%v", alpha)
		}
	}
}

// TestSweepConcurrentBatches: independent sweeps and batch calls over one
// shared Prepared view must be race-free (meaningful under go test -race).
func TestSweepConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	d := gnarlyDataset(rng, 300)
	v := Prepare(d)
	grid := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	done := make(chan struct{}, 3)
	ctx := context.Background()
	go func() {
		if _, err := v.QueryRankPRFeBatch(ctx, grid); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	go func() {
		if _, err := v.QueryTopKPRFeBatch(ctx, grid, 9); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	go func() { v.SpectrumSizeGrid(40); done <- struct{}{} }()
	want := refRankings(v, grid)
	got, err := v.RankPRFeSweep(context.Background(), grid)
	if err != nil {
		t.Fatalf("RankPRFeSweep: %v", err)
	}
	for a := range grid {
		if !sameRanking(got[a], want[a]) {
			t.Fatalf("concurrent sweep differs at α=%v", grid[a])
		}
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}
