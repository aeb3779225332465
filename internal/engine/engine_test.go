package engine

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// Compile-time proof that all four prepared views satisfy Ranker.
var (
	_ Ranker = (*core.Prepared)(nil)
	_ Ranker = (*andxor.PreparedTree)(nil)
	_ Ranker = (*junction.PreparedNetwork)(nil)
	_ Ranker = (*junction.PreparedChain)(nil)
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	return New(core.Prepare(datagen.IIPLike(64, 7)))
}

func TestQueryValidation(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	cases := []struct {
		name string
		q    Query
		want string
	}{
		{"no metric", Query{}, "no Metric"},
		{"nan alpha", Query{Metric: MetricPRFe, Alpha: math.NaN(), Output: OutputRanking}, "non-finite"},
		{"nan weight", Query{Metric: MetricPRFOmega, Weights: []float64{1, math.NaN()}}, "NaN"},
		{"negative depth", Query{Metric: MetricPTh, H: -3}, "negative"},
		{"nil omega", Query{Metric: MetricPRF}, "Omega"},
		{"empty combo", Query{Metric: MetricPRFeCombo}, "no terms"},
		{"bad topk", Query{Metric: MetricPRFe, Alpha: 0.5, Output: OutputTopK, K: -1}, "negative"},
		{"unknown metric", Query{Metric: Metric(99)}, "unknown metric"},
		{"unknown output prfe", Query{Metric: MetricPRFe, Alpha: 0.5, Output: Output(7)}, "unknown output mode"},
		{"unknown output erank", Query{Metric: MetricERank, Output: Output(7)}, "unknown output mode"},
		{"grid on Rank", Query{Metric: MetricPRFe, Alphas: []float64{0.1, 0.9}, Output: OutputRanking}, "use RankBatch"},
	}
	for _, tc := range cases {
		if _, err := e.Rank(ctx, tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := e.RankBatch(ctx, Query{Metric: MetricERank}); err == nil {
		t.Error("RankBatch on a grid-less metric must error")
	}
	if _, err := e.RankBatch(ctx, Query{Metric: MetricPRFe}); err == nil {
		t.Error("RankBatch without a grid must error")
	}
	if _, err := e.RankBatch(ctx, Query{Metric: MetricPRFe, Alphas: []float64{0.5}, Output: Output(7)}); err == nil || !strings.Contains(err.Error(), "unknown output mode") {
		t.Errorf("RankBatch unknown output: err = %v, want containing %q", err, "unknown output mode")
	}
	var nilEngine *Engine
	if _, err := nilEngine.Rank(ctx, Query{Metric: MetricERank}); err == nil {
		t.Error("nil engine must error, not panic")
	}
}

func TestRankShapes(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	n := e.Ranker().Len()

	res, err := e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: 0.9})
	if err != nil || len(res.Complex) != n || res.Ranking != nil || res.Values != nil {
		t.Fatalf("PRFe values: res=%+v err=%v", res, err)
	}
	res, err = e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: 0.9, Output: OutputTopK, K: 5})
	if err != nil || len(res.Ranking) != 5 {
		t.Fatalf("PRFe topk: res=%+v err=%v", res, err)
	}
	res, err = e.Rank(ctx, Query{Metric: MetricERank, Output: OutputRanking})
	if err != nil || len(res.Ranking) != n {
		t.Fatalf("ERank ranking: res=%+v err=%v", res, err)
	}

	grid := []float64{0.1, 0.5, 0.9}
	batch, err := e.RankBatch(ctx, Query{Metric: MetricPRFe, Alphas: grid, Output: OutputRanking})
	if err != nil || len(batch) != 3 {
		t.Fatalf("batch: len=%d err=%v", len(batch), err)
	}
	for a, r := range batch {
		if r.Alpha != grid[a] || len(r.Ranking) != n {
			t.Fatalf("batch[%d]: alpha=%v len=%d", a, r.Alpha, len(r.Ranking))
		}
	}
}

// TestCancellationAllBackends: a pre-canceled context must surface as an
// error from every backend and every query shape, with no partial answer.
func TestCancellationAllBackends(t *testing.T) {
	d := datagen.IIPLike(48, 3)
	tree, err := datagen.SynXOR(48, 3)
	if err != nil {
		t.Fatal(err)
	}
	chain := datagen.MarkovChainLike(24, 3)
	net, err := chain.Network()
	if err != nil {
		t.Fatal(err)
	}
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Ranker{
		"independent": core.Prepare(d),
		"tree":        andxor.PrepareTree(tree),
		"network":     pn,
		"chain":       junction.PrepareChain(chain),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grid := []float64{0.1, 0.2, 0.5, 0.8, 1.0}
	for name, r := range backends {
		e := New(r)
		if _, err := e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: 0.5, Output: OutputRanking}); err == nil {
			t.Errorf("%s: Rank ignored canceled context", name)
		}
		if _, err := e.Rank(ctx, Query{Metric: MetricERank}); err == nil {
			t.Errorf("%s: ERank ignored canceled context", name)
		}
		if _, err := e.RankBatch(ctx, Query{Metric: MetricPRFe, Alphas: grid, Output: OutputRanking}); err == nil {
			t.Errorf("%s: RankBatch ignored canceled context", name)
		}
		if _, err := e.RankBatch(ctx, Query{Metric: MetricPRFe, Alphas: grid, Output: OutputTopK, K: 3}); err == nil {
			t.Errorf("%s: top-k RankBatch ignored canceled context", name)
		}
	}
}

// TestERankRankingAscending: E-Rank ranks lower-is-better; the engine must
// return the tuple with the smallest expected rank first.
func TestERankRankingAscending(t *testing.T) {
	d := pdb.MustDataset([]float64{10, 20, 30}, []float64{0.9, 0.1, 0.2})
	e := New(core.Prepare(d))
	res, err := e.Rank(context.Background(), Query{Metric: MetricERank, Output: OutputRanking})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := e.Rank(context.Background(), Query{Metric: MetricERank})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Ranking); i++ {
		if vals.Values[res.Ranking[i-1]] > vals.Values[res.Ranking[i]] {
			t.Fatalf("E-Rank ranking not ascending in expected rank: %v with values %v", res.Ranking, vals.Values)
		}
	}
}

// TestRankTopKSingleAlpha: single-α PRFe top-k rides each backend's top-k
// batch kernel, yet must answer exactly like the full ranking cut to k,
// and a bad α must fail with the single-query CheckAlpha text — not the
// batch validator's "grid point 0: …" wrapping.
func TestRankTopKSingleAlpha(t *testing.T) {
	ctx := context.Background()
	for name, e := range cacheBackends(t) {
		n := e.Ranker().Len()
		for _, alpha := range []float64{0, 0.3, 0.9, 1, 1.5, -0.5} {
			for _, k := range []int{0, 1, 5, n, n + 5} {
				got, err := e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: alpha, Output: OutputTopK, K: k})
				if err != nil {
					t.Fatalf("%s α=%v k=%d: %v", name, alpha, k, err)
				}
				full, err := e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: alpha, Output: OutputRanking})
				if err != nil {
					t.Fatal(err)
				}
				if want := full.Ranking.TopK(k); !reflect.DeepEqual(got.Ranking, want) {
					t.Fatalf("%s α=%v k=%d: top-k %v, ranking cut %v", name, alpha, k, got.Ranking, want)
				}
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			want := pdb.CheckAlpha(bad).Error()
			for _, out := range []Output{OutputRanking, OutputTopK} {
				_, err := e.Rank(ctx, Query{Metric: MetricPRFe, Alpha: bad, Output: out, K: 3})
				if err == nil || err.Error() != want {
					t.Errorf("%s α=%v %v: err %v, want %q", name, bad, out, err, want)
				}
			}
		}
	}
}
