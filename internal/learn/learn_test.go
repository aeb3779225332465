package learn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/andxor"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
	"repro/internal/rankdist"
)

func randDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64() * 10000
		probs[i] = rng.Float64()
	}
	return pdb.MustDataset(scores, probs)
}

// When the user ranking IS a PRFe ranking, LearnAlpha must recover it
// (distance ≈ 0), as the paper reports ("the value of α can be learned
// perfectly").
func TestLearnAlphaRecoversPRFe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 200)
	for _, trueAlpha := range []float64{0.3, 0.8, 0.95} {
		user := core.RankPRFe(d, trueAlpha)
		res := LearnAlpha(d, user, 50, 8)
		if res.Distance > 1e-9 {
			t.Fatalf("α*=%v: learned α=%v with distance %v, want 0", trueAlpha, res.Alpha, res.Distance)
		}
	}
}

// PT(h) rankings are approximable by PRFe with small distance (Figure 9(i)).
func TestLearnAlphaApproximatesPTh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randDataset(rng, 300)
	user := pdb.RankByValue(core.PTh(d, 50))
	res := LearnAlpha(d, user, 50, 8)
	if res.Distance > 0.15 {
		t.Fatalf("PT(50): learned α=%v distance %v, want < 0.15", res.Alpha, res.Distance)
	}
}

// The refinement search must be no worse than a coarse grid scan (the
// uni-valley observation makes it near-optimal).
func TestLearnAlphaBeatsGridScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDataset(rng, 150)
	user := pdb.RankByValue(baselines.EScore(d))
	res := LearnAlpha(d, user, 30, 8)
	_, dists, err := GridScanAlphaRanker(context.Background(), core.Prepare(d), user, 30, 40)
	if err != nil {
		t.Fatal(err)
	}
	gridBest := math.Inf(1)
	for _, v := range dists {
		if v < gridBest {
			gridBest = v
		}
	}
	if res.Distance > gridBest+1e-9 {
		t.Fatalf("refinement found %v, grid scan found %v", res.Distance, gridBest)
	}
}

func TestLearnAlphaDefaultsAndBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := randDataset(rng, 50)
	user := core.RankPRFe(d, 0.5)
	res := LearnAlpha(d, user, 0, 0) // defaults: k=len(user), iters=6
	if res.Evaluations == 0 || res.Evaluations > 2+9*6 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if res.Alpha < 0 || res.Alpha > 1 {
		t.Fatalf("alpha out of range: %v", res.Alpha)
	}
}

// LearnOmega must recover a PT(h)-style ranking from preferences.
func TestLearnOmegaRecoversPTh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 80)
	h := 10
	user := pdb.RankByValue(core.PTh(d, h))
	w := LearnOmega(d, user, OmegaOptions{H: 20, Iters: 800})
	if w == nil {
		t.Fatal("nil weights")
	}
	learned := RankWithOmega(d, w)
	dist := rankdist.KendallTopK(user.TopK(20), learned.TopK(20), 20)
	if dist > 0.2 {
		t.Fatalf("learned PT(%d) ranking at distance %v, want < 0.2", h, dist)
	}
}

// LearnOmega must recover a PRFe ranking (Figure 9(ii): "PRF-e can be
// learned very well from a small size sample").
func TestLearnOmegaRecoversPRFe(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 80)
	user := core.RankPRFe(d, 0.9)
	w := LearnOmega(d, user, OmegaOptions{H: 30, Iters: 800})
	learned := RankWithOmega(d, w)
	dist := rankdist.KendallTopK(user.TopK(20), learned.TopK(20), 20)
	if dist > 0.25 {
		t.Fatalf("learned PRFe ranking at distance %v, want < 0.25", dist)
	}
}

func TestLearnOmegaDegenerate(t *testing.T) {
	if w := LearnOmega(pdb.MustDataset(nil, nil), nil, OmegaOptions{}); w != nil {
		t.Fatalf("empty sample: %v", w)
	}
	d := pdb.MustDataset([]float64{1}, []float64{0.5})
	if w := LearnOmega(d, pdb.Ranking{0}, OmegaOptions{}); w != nil {
		t.Fatalf("single-tuple ranking has no pairs: %v", w)
	}
}

func TestGridScanAlphaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 60)
	user := core.RankPRFe(d, 0.7)
	// gridSize 10 puts the true α=0.7 exactly on the grid (7/10).
	alphas, dists, err := GridScanAlphaRanker(context.Background(), core.Prepare(d), user, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(alphas) != 10 || len(dists) != 10 {
		t.Fatalf("lengths %d/%d", len(alphas), len(dists))
	}
	minDist := math.Inf(1)
	for _, v := range dists {
		if v < minDist {
			minDist = v
		}
	}
	if minDist > 1e-9 {
		t.Fatalf("grid scan should hit the true α: min distance %v", minDist)
	}
}

// Learned PRFω weights should give *decreasing importance* to deeper ranks
// when trained on a decreasing-weight ranking (qualitative check on the
// learned shape: mass concentrates in the early coordinates).
func TestLearnOmegaWeightMassConcentratesEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randDataset(rng, 70)
	user := pdb.RankByValue(core.PTh(d, 5))
	w := LearnOmega(d, user, OmegaOptions{H: 40, Iters: 800})
	var early, late float64
	for i, v := range w {
		if i < 10 {
			early += math.Abs(v)
		} else if i >= 30 {
			late += math.Abs(v)
		}
	}
	if !(early > late) {
		t.Fatalf("weight mass should concentrate early: early %v vs late %v", early, late)
	}
}

// The two-stage combo learner must approximate a PT(h)-style preference and
// scale it to a larger dataset at O(n·L) cost.
func TestLearnPRFeComboRecoversPTh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sample := randDataset(rng, 120)
	h := 15
	user := pdb.RankByValue(core.PTh(sample, h))
	terms := LearnPRFeCombo(sample, user, ComboOptions{
		Omega: OmegaOptions{H: 30, Iters: 600},
		L:     20,
	})
	if len(terms) == 0 {
		t.Fatal("no terms learned")
	}
	// Apply to a fresh, larger dataset drawn from the same distribution.
	big := randDataset(rng, 600)
	truth := pdb.RankByValue(core.PTh(big, h))
	learned := RankWithCombo(big, terms)
	dist := rankdist.KendallTopK(truth.TopK(30), learned.TopK(30), 30)
	if dist > 0.35 {
		t.Fatalf("combo-learned ranking at distance %v", dist)
	}
}

func TestLearnPRFeComboDegenerate(t *testing.T) {
	if terms := LearnPRFeCombo(pdb.MustDataset(nil, nil), nil, ComboOptions{}); terms != nil {
		t.Fatalf("empty sample: %v", terms)
	}
}

// When the user ranking IS a tree PRFe ranking, LearnAlphaTree must recover
// it on the correlated sample — the prepared-tree arm of the α search.
func TestLearnAlphaTreeRecoversPRFe(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	groups := make([][]andxor.Alternative, 60)
	for g := range groups {
		alts := make([]andxor.Alternative, 1+rng.Intn(3))
		rem := 1.0
		for i := range alts {
			p := rng.Float64() * rem
			rem -= p
			alts[i] = andxor.Alternative{Score: rng.Float64() * 1000, Prob: p}
		}
		groups[g] = alts
	}
	sample, err := andxor.XTuples(groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, trueAlpha := range []float64{0.4, 0.9} {
		user := andxor.RankPRFe(sample, trueAlpha)
		res := LearnAlphaTree(sample, user, 30, 8)
		if res.Distance > 1e-9 {
			t.Fatalf("α*=%v: learned α=%v with distance %v, want 0", trueAlpha, res.Alpha, res.Distance)
		}
	}
}

// TestLearnAlphaRankerAllBackends runs the generic α search against every
// unified-engine backend: when the user ranking is that backend's own
// PRFe(α*) ranking, the search must recover a near-zero distance.
func TestLearnAlphaRankerAllBackends(t *testing.T) {
	chain := datagen.MarkovChainLike(40, 11)
	net, err := chain.Network()
	if err != nil {
		t.Fatal(err)
	}
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := datagen.SynXOR(80, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	backends := map[string]engine.Ranker{
		"independent": core.Prepare(randDataset(rng, 120)),
		"tree":        andxor.PrepareTree(tree),
		"network":     pn,
		"chain":       junction.PrepareChain(chain),
	}
	ctx := context.Background()
	for name, r := range backends {
		user, err := r.QueryRankPRFe(ctx, 0.85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := LearnAlphaRanker(ctx, r, user, 10, 6)
		if err != nil {
			t.Fatalf("%s: LearnAlphaRanker: %v", name, err)
		}
		if res.Distance > 0.05 {
			t.Errorf("%s: learned α=%v distance %v, want ≈0", name, res.Alpha, res.Distance)
		}
	}
}

// TestLearnAlphaRankerValidatesAndCancels: malformed user rankings error
// instead of panicking, and a canceled context aborts the search.
func TestLearnAlphaRankerValidatesAndCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := core.Prepare(randDataset(rng, 50))
	ctx := context.Background()
	if _, err := LearnAlphaRanker(ctx, r, pdb.Ranking{1, 1}, 2, 3); err == nil {
		t.Error("duplicate user IDs must error")
	}
	if _, err := LearnAlphaRanker(ctx, r, pdb.Ranking{1, 99}, 2, 3); err == nil {
		t.Error("out-of-range user ID must error")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	user, _ := r.QueryRankPRFe(ctx, 0.5)
	if _, err := LearnAlphaRanker(canceled, r, user, 5, 3); err == nil {
		t.Error("canceled context must abort the search")
	}
	if _, _, err := GridScanAlphaRanker(canceled, r, user, 5, 16); err == nil {
		t.Error("canceled context must abort the grid scan")
	}
}

// TestLearnAlphaEmptyUserRanking pins the legacy degenerate-input contract:
// an empty user ranking (k defaults to 0) must return normally, not panic —
// top-0 queries are valid and every distance is 0.
func TestLearnAlphaEmptyUserRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randDataset(rng, 30)
	res := LearnAlpha(d, pdb.Ranking{}, 0, 2)
	if res.Distance != 0 {
		t.Fatalf("empty user ranking: distance %v, want 0", res.Distance)
	}
}
