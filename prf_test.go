package prf_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	prf "repro"
)

// figure1 builds the paper's running-example traffic database as a tree.
func figure1(t *testing.T) *prf.Tree {
	t.Helper()
	tree, err := prf.NewTree(prf.NewAnd(
		prf.NewXor([]float64{0.4}, prf.NewLeaf(120)),
		prf.NewXor([]float64{0.7, 0.3}, prf.NewLeaf(130), prf.NewLeaf(80)),
		prf.NewXor([]float64{0.4, 0.6}, prf.NewLeaf(95), prf.NewLeaf(110)),
		prf.NewXor([]float64{1.0}, prf.NewLeaf(105)),
	))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// rankQ answers one query through the engine, failing the test on error.
func rankQ(t testing.TB, e *prf.Engine, q prf.Query) *prf.Result {
	t.Helper()
	res, err := e.Rank(context.Background(), q)
	if err != nil {
		t.Fatalf("%v query: %v", q.Metric, err)
	}
	return res
}

// prfeRanking is the full PRFe(α) ranking through the engine.
func prfeRanking(t testing.TB, e *prf.Engine, alpha float64) prf.Ranking {
	t.Helper()
	return rankQ(t, e, prf.Query{Metric: prf.MetricPRFe, Alpha: alpha, Output: prf.OutputRanking}).Ranking
}

func TestPublicAPIIndependentPipeline(t *testing.T) {
	d, err := prf.NewDataset(
		[]float64{100, 80, 50, 30},
		[]float64{0.4, 0.6, 0.5, 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng := prf.EngineFor(d)
	// PRFe ranking at the extremes (Example 7).
	r0 := prfeRanking(t, eng, 1e-9)
	if r0[0] != 0 {
		t.Fatalf("α→0 should rank t1 first: %v", r0)
	}
	r1 := prfeRanking(t, eng, 1)
	if r1[0] != 3 {
		t.Fatalf("α=1 should rank t4 first: %v", r1)
	}
	// Rank distribution sums to presence probabilities.
	rd := prf.RankDistribution(d)
	for _, tu := range d.Tuples() {
		if math.Abs(rd.PresenceProb(tu.ID)-tu.Prob) > 1e-9 {
			t.Fatalf("presence mismatch for %v", tu)
		}
	}
	// PT, PRF, PRFOmega agree on step weights.
	pt := rankQ(t, eng, prf.Query{Metric: prf.MetricPTh, H: 2}).Values
	po := rankQ(t, eng, prf.Query{Metric: prf.MetricPRFOmega, Weights: []float64{1, 1}}).Values
	pg := rankQ(t, eng, prf.Query{Metric: prf.MetricPRF, Omega: func(_ prf.Tuple, i int) float64 {
		if i <= 2 {
			return 1
		}
		return 0
	}}).Values
	for i := range pt {
		if math.Abs(pt[i]-po[i]) > 1e-12 || math.Abs(pt[i]-pg[i]) > 1e-12 {
			t.Fatalf("PT/PRFω/PRF disagree at %d: %v %v %v", i, pt[i], po[i], pg[i])
		}
	}
	// Baselines run and produce sane shapes.
	if got := prf.TopK(prf.EScore(d), 2); len(got) != 2 {
		t.Fatalf("EScore TopK: %v", got)
	}
	if got, err := prf.URank(d, 3); err != nil || len(got) != 3 {
		t.Fatalf("URank: %v %v", got, err)
	}
	if set, p, err := prf.UTopK(d, 2); err != nil || len(set) != 2 || p <= 0 || p > 1 {
		t.Fatalf("UTopK: %v %v %v", set, p, err)
	}
	if set, v, err := prf.KSelection(d, 2); err != nil || len(set) != 2 || v <= 0 {
		t.Fatalf("KSelection: %v %v %v", set, v, err)
	}
	er := prf.ERank(d)
	if len(prf.ERankRanking(er)) != 4 {
		t.Fatal("ERankRanking size")
	}
	// Consensus (Theorem 2) minimizes the expected symmetric difference.
	tau := prf.ConsensusTopK(d, 2)
	best := prf.ExpectedSymDiff(d, tau)
	other := prf.Ranking{2, 3}
	if prf.ExpectedSymDiff(d, other) < best-1e-12 {
		t.Fatal("consensus answer not optimal")
	}
	// Crossing points (Theorem 4).
	if _, ok := prf.CrossingPoint(d, 0, 3); !ok {
		t.Fatal("expected t1/t4 crossing")
	}
	// Metrics.
	if prf.KendallTopK(tau, tau, 2) != 0 || prf.IntersectionMetric(tau, tau, 2) != 0 {
		t.Fatal("self distance must be 0")
	}
	if prf.KendallFull(r0, r0) != 0 {
		t.Fatal("full self distance must be 0")
	}
	if prf.FootruleTopK(tau, tau, 2) != 0 {
		t.Fatal("footrule self distance must be 0")
	}
}

func TestPublicAPITreePipeline(t *testing.T) {
	tree := figure1(t)
	// Example 4: Pr(r(t4)=3) = 0.216.
	rd := prf.TreeRankDistribution(tree)
	if got := rd.At(3, 3); math.Abs(got-0.216) > 1e-12 {
		t.Fatalf("Pr(r(t4)=3) = %v", got)
	}
	// PRFe incremental vs truncated PRFω consistency.
	eng := prf.EngineForTree(tree)
	vals := rankQ(t, eng, prf.Query{Metric: prf.MetricPRFe, Alpha: 0.8}).Complex
	full := rankQ(t, eng, prf.Query{Metric: prf.MetricPRF, Omega: func(_ prf.Tuple, i int) float64 {
		return math.Pow(0.8, float64(i))
	}}).Values
	for i := range vals {
		if math.Abs(real(vals[i])-full[i]) > 1e-9 {
			t.Fatalf("tree PRFe mismatch at %d", i)
		}
	}
	if got := prfeRanking(t, eng, 0.8); len(got) != 6 {
		t.Fatalf("tree ranking: %v", got)
	}
	if got := rankQ(t, eng, prf.Query{Metric: prf.MetricPTh, H: 2}).Values; len(got) != 6 {
		t.Fatalf("tree PT: %v", got)
	}
	if got, err := prf.URankTree(tree, 2); err != nil || len(got) != 2 {
		t.Fatalf("tree URank: %v %v", got, err)
	}
	if got := prf.TreeExpectedRanks(tree); len(got) != 6 {
		t.Fatalf("tree ERank: %v", got)
	}
	sd := prf.TreeSizeDistribution(tree)
	var sum float64
	for _, p := range sd {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("size distribution sums to %v", sum)
	}
	// Consensus on trees (Example 6, corrected): {t2, t5}, E = 1.736.
	tau := prf.ConsensusTopKTree(tree, 2)
	want := map[prf.TupleID]bool{1: true, 4: true}
	if !want[tau[0]] || !want[tau[1]] {
		t.Fatalf("tree consensus: %v", tau)
	}
	// Monte-Carlo U-Top returns a plausible 2-set.
	rng := rand.New(rand.NewSource(1))
	mc := prf.UTopKMonteCarloTree(tree, 2, 5000, rng)
	if len(mc) != 2 {
		t.Fatalf("MC UTop: %v", mc)
	}
	// Worlds round-trip via TreeFromWorlds.
	tree2, ids, err := prf.TreeFromWorlds(
		[][]prf.Alternative{{{Score: 6}, {Score: 5}}, {{Score: 9}}},
		[]float64{0.6, 0.4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != 3 || len(ids) != 2 {
		t.Fatalf("FromWorlds: %d leaves", tree2.Len())
	}
}

func TestPublicAPIUncertainScores(t *testing.T) {
	groups := [][]prf.Alternative{
		{{Score: 10, Prob: 0.5}, {Score: 4, Prob: 0.3}},
		{{Score: 8, Prob: 0.9}},
	}
	vals, err := prf.PRFeUncertainScores(groups, complex(0.9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("uncertain scores: %v", vals)
	}
	pv, err := prf.PRFUncertainScores(groups, func(_ prf.Tuple, i int) float64 {
		if i == 1 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if pv[0] < 0 || pv[0] > 1 || pv[1] < 0 || pv[1] > 1 {
		t.Fatalf("Pr(rank 1) out of range: %v", pv)
	}
}

func TestPublicAPIApproximationAndLearning(t *testing.T) {
	// Approximate PT(50) by 20 exponentials and rank with the combo.
	scores := make([]float64, 400)
	probs := make([]float64, 400)
	rng := rand.New(rand.NewSource(2))
	for i := range scores {
		scores[i] = rng.Float64() * 1000
		probs[i] = rng.Float64()
	}
	d, err := prf.NewDataset(scores, probs)
	if err != nil {
		t.Fatal(err)
	}
	terms := prf.ApproximateWeights(prf.StepWeights(50), 50, prf.DefaultApproxOptions(20))
	if len(terms) == 0 {
		t.Fatal("no approximation terms")
	}
	eng := prf.EngineFor(d)
	combo := rankQ(t, eng, prf.Query{Metric: prf.MetricPRFeCombo, Terms: prf.ApproxPRFeTerms(terms)}).Complex
	approx := prf.RankByValue(prf.RealParts(combo))
	exact := prf.RankByValue(rankQ(t, eng, prf.Query{Metric: prf.MetricPTh, H: 50}).Values)
	if dist := prf.KendallTopK(approx.TopK(50), exact.TopK(50), 50); dist > 0.2 {
		t.Fatalf("approximation distance %v", dist)
	}
	// Learn α back from a PRFe-generated ranking.
	user := prfeRanking(t, eng, 0.9)
	res := prf.LearnAlpha(d, user, 50, 8)
	if res.Distance > 1e-9 {
		t.Fatalf("LearnAlpha distance %v", res.Distance)
	}
	// Learn PRFω weights from the same preferences.
	w := prf.LearnOmega(d, user, prf.OmegaOptions{H: 25, Iters: 200})
	if len(w) != 25 {
		t.Fatalf("LearnOmega weights: %d", len(w))
	}
}

func TestPublicAPIMarkovNetwork(t *testing.T) {
	// Three positively correlated tuples on a chain.
	net, err := prf.NewMarkovNetwork(
		[]float64{30, 20, 10},
		[]prf.MarkovFactor{
			{Vars: []int{0}, Table: []float64{0.5, 0.5}},
			{Vars: []int{1}, Table: []float64{0.5, 0.5}},
			{Vars: []int{2}, Table: []float64{0.5, 0.5}},
			{Vars: []int{0, 1}, Table: []float64{2, 1, 1, 2}},
			{Vars: []int{1, 2}, Table: []float64{2, 1, 1, 2}},
		})
	if err != nil {
		t.Fatal(err)
	}
	jt, err := prf.BuildJunctionTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Treewidth() != 1 {
		t.Fatalf("treewidth %d", jt.Treewidth())
	}
	rd, err := prf.NetworkRankDistribution(net)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for j := 1; j <= 3; j++ {
		total += rd.At(0, j)
	}
	if math.Abs(total-jt.VariableMarginal(0)) > 1e-9 {
		t.Fatalf("rank distribution inconsistent with marginal: %v vs %v",
			total, jt.VariableMarginal(0))
	}
	netEng, err := prf.EngineForNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	rankQ(t, netEng, prf.Query{Metric: prf.MetricPRFe, Alpha: 0.9})
	rankQ(t, netEng, prf.Query{Metric: prf.MetricPRF, Omega: func(_ prf.Tuple, i int) float64 { return 1 / float64(i) }})
	// Chain model.
	chain, err := prf.NewMarkovChain([]float64{3, 2},
		[][2][2]float64{{{0.2, 0.3}, {0.1, 0.4}}})
	if err != nil {
		t.Fatal(err)
	}
	crd := chain.RankDistribution()
	if got := crd.At(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("chain Pr(r(t0)=1) = %v, want 0.5", got)
	}
}

func TestPublicAPIWorldsAndSampling(t *testing.T) {
	d, _ := prf.NewDataset([]float64{2, 1}, []float64{0.5, 0.5})
	worlds, err := prf.EnumerateWorlds(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 4 {
		t.Fatalf("worlds: %d", len(worlds))
	}
	rng := rand.New(rand.NewSource(3))
	w := prf.SampleWorld(d, rng)
	if len(w.Present) > 2 {
		t.Fatalf("sampled world: %v", w)
	}
	ts := []prf.Tuple{{Score: 5, Prob: 0.5}, {Score: 7, Prob: 0.25}}
	d2, err := prf.FromTuples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 || d2.Tuple(1).ID != 1 {
		t.Fatal("FromTuples IDs")
	}
}

func TestPublicAPIPRFlAndWeights(t *testing.T) {
	d, _ := prf.NewDataset([]float64{10, 5}, []float64{0.5, 0.8})
	l := prf.PRFl(d)
	// er1(t0) = .5·1, er1(t1) = .8·1.5; PRFl is the negation.
	if math.Abs(l[0]+0.5) > 1e-12 || math.Abs(l[1]+1.2) > 1e-12 {
		t.Fatalf("PRFl = %v", l)
	}
	er1, er2 := prf.ExpectedRankDecomposition(d)
	er := prf.ERank(d)
	for i := range er {
		if math.Abs(er1[i]+er2[i]-er[i]) > 1e-12 {
			t.Fatalf("decomposition mismatch at %d", i)
		}
	}
	if prf.LinearWeights(5)(0) != 5 || prf.SmoothWeights(10)(10) != 0 {
		t.Fatal("weight helpers wrong")
	}
	if ld := prf.LogDiscountWeights(10); math.Abs(ld(0)-1) > 1e-12 {
		t.Fatal("log discount wrong")
	}
	if got := prf.SpectrumSizeGrid(d, 50); got < 1 {
		t.Fatalf("sampled spectrum size %d", got)
	}
	if exact := prf.SpectrumSize(d); exact < prf.SpectrumSizeGrid(d, 50) {
		t.Fatalf("exact spectrum %d below sampled count", exact)
	}
}

func TestPublicAPIKeyAggregationAndNetworkERank(t *testing.T) {
	tree, _, err := prf.TreeFromWorlds(
		[][]prf.Alternative{{{Score: 6}, {Score: 5}}, {{Score: 9}}},
		[]float64{0.6, 0.4},
		[][]string{{"a", "b"}, {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := prf.TreeRankByKey(tree, complex(0.9, 0))
	if len(keys) != 2 || len(vals) != 2 {
		t.Fatalf("keys %v vals %v", keys, vals)
	}
	if keys[0] != "a" {
		t.Fatalf("key 'a' (present in both worlds) should rank first: %v", keys)
	}
	net, err := prf.NewMarkovNetwork([]float64{2, 1}, []prf.MarkovFactor{
		{Vars: []int{0}, Table: []float64{0.5, 0.5}},
		{Vars: []int{1}, Table: []float64{0.2, 0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	er, err := prf.NetworkExpectedRanks(net)
	if err != nil {
		t.Fatal(err)
	}
	// Independent 2-tuple case cross-check against the closed form.
	d, _ := prf.NewDataset([]float64{2, 1}, []float64{0.5, 0.8})
	want := prf.ERank(d)
	for i := range er {
		if math.Abs(er[i]-want[i]) > 1e-9 {
			t.Fatalf("network E-Rank %v vs closed form %v", er, want)
		}
	}
}

// TestServeFacade exercises the public serving surface: NewRankServer +
// AddDataset answer HTTP queries identically to the engine, NewCachedEngine
// memoizes, and prf.Serve shuts down cleanly on context cancellation.
func TestServeFacade(t *testing.T) {
	d, err := prf.NewDataset(
		[]float64{100, 80, 50, 30},
		[]float64{0.4, 0.6, 0.5, 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := prf.NewRankServer(prf.ServeOptions{DefaultTimeout: 5 * time.Second})
	if err := srv.AddDataset("demo", prf.EngineFor(d)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/rank", "application/json", strings.NewReader(
		`{"dataset": "demo", "query": {"metric": "prfe", "alpha": 0.5, "output": "ranking"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Ranking prf.Ranking `json:"ranking"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := prfeRanking(t, prf.EngineFor(d), 0.5)
	if len(got.Ranking) != len(want) {
		t.Fatalf("ranking %v, want %v", got.Ranking, want)
	}
	for i := range want {
		if got.Ranking[i] != want[i] {
			t.Fatalf("ranking %v, want %v", got.Ranking, want)
		}
	}

	// prf.Serve: clean shutdown on ctx cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- prf.Serve(ctx, "127.0.0.1:0", srv) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}
