package store

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oracle"
	"repro/internal/pdb"
)

// lazyOracleQueries is the metric × output table the cold lazy view is
// certified on: all nine metrics, each as values, a full ranking and a
// top-k answer.
func lazyOracleQueries(n int) []engine.Query {
	k := n/2 + 1
	omega := func(t pdb.Tuple, rank int) float64 { return t.Score / float64(rank) }
	terms := []core.ExpTerm{
		{U: complex(0.75, 0), Alpha: complex(0.9, 0)},
		{U: complex(-0.25, 0), Alpha: complex(0.4, 0)},
	}
	params := []engine.Query{
		{Metric: engine.MetricPRFe, Alpha: 0.85},
		{Metric: engine.MetricPRFOmega, Weights: []float64{1, 0.5, 0.25}},
		{Metric: engine.MetricPTh, H: (n + 1) / 2},
		{Metric: engine.MetricPRF, Omega: omega},
		{Metric: engine.MetricERank},
		{Metric: engine.MetricPRFeCombo, Terms: terms},
		{Metric: engine.MetricGlobalTopk},
		{Metric: engine.MetricExpectedRank},
		{Metric: engine.MetricMedianRank},
	}
	var qs []engine.Query
	for _, q := range params {
		for _, out := range []engine.Output{engine.OutputValues, engine.OutputRanking, engine.OutputTopK} {
			q.Output, q.K = out, k
			qs = append(qs, q)
		}
	}
	return qs
}

// TestLazyTopKOracle certifies Engine.Rank's PRFe top-k through a
// LazyPrepared against the possible-worlds oracle on n ≤ 18 relations,
// both on cold views — with the prefix floor lowered so the certified
// partial path is reachable at this size — and on materialized ones. Every
// other metric × output pair is then certified on fresh cold views, so the
// lazy view's first-query materialization is checked for each. Each answer
// must also equal the in-memory core.Prepared engine bit-for-bit.
func TestLazyTopKOracle(t *testing.T) {
	ctx := context.Background()
	s := tempStore(t)
	partial := 0
	for _, n := range []int{2, 5, 9, 12, 16, 18} {
		for seed := int64(0); seed < 3; seed++ {
			lz, full := lazyFixture(t, s, n, seed)
			name := fmt.Sprintf("lazy-%d-%d", n, seed)
			scores := make([]float64, n)
			probs := make([]float64, n)
			for i := 0; i < n; i++ {
				scores[full.ID(i)], probs[full.ID(i)] = full.Score(i), full.Prob(i)
			}
			o, err := oracle.FromDataset(pdb.MustDataset(scores, probs))
			if err != nil {
				t.Fatal(err)
			}
			ref := engine.New(full)
			if _, err := lz.Materialize(ctx); err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0.05, 0.3, 0.6, 0.85, 0.99, 1} {
				for _, k := range []int{0, 1, 2, 3, n/2 + 1, n} {
					q := engine.Query{Metric: engine.MetricPRFe, Output: engine.OutputTopK, Alpha: alpha, K: k}
					want, err := ref.Rank(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					h, err := s.OpenHandle(name)
					if err != nil {
						t.Fatal(err)
					}
					cold := NewLazy(h)
					cold.minPrefix = 1
					for _, view := range []struct {
						label string
						r     *LazyPrepared
					}{{"cold", cold}, {"materialized", lz}} {
						where := fmt.Sprintf("%s n=%d seed=%d α=%v k=%d", view.label, n, seed, alpha, k)
						if err := o.Certify(ctx, view.r, q); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						got, err := engine.New(view.r).Rank(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Ranking, want.Ranking) {
							t.Fatalf("%s: %v, core engine %v", where, got.Ranking, want.Ranking)
						}
					}
					if cold.full.Load() == nil {
						partial++
						_ = h.Close()
					}
				}
			}
			for _, q := range lazyOracleQueries(n) {
				where := fmt.Sprintf("cold n=%d seed=%d %v/%v", n, seed, q.Metric, q.Output)
				want, err := ref.Rank(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := engine.New(coldLazy(t, s, name)).Rank(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %+v, core engine %+v", where, got, want)
				}
				if err := o.Certify(ctx, coldLazy(t, s, name), q); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
	t.Logf("%d cold answers from a certified prefix", partial)
	if partial == 0 {
		t.Error("no cold query was answered from a certified prefix")
	}
}

// coldLazy opens a fresh, never-queried LazyPrepared over a stored segment,
// with the prefix floor lowered as in the top-k checks above. The handle is
// closed at test end unless a query has materialized the view first.
func coldLazy(t *testing.T, s *Store, name string) *LazyPrepared {
	t.Helper()
	h, err := s.OpenHandle(name)
	if err != nil {
		t.Fatal(err)
	}
	lz := NewLazy(h)
	lz.minPrefix = 1
	t.Cleanup(func() {
		if lz.full.Load() == nil {
			_ = h.Close()
		}
	})
	return lz
}
