package store

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/oracle"
	"repro/internal/pdb"
)

// TestLazyTopKOracle certifies Engine.Rank's PRFe top-k through a
// LazyPrepared against the possible-worlds oracle on n ≤ 18 relations,
// both on cold views — with the prefix floor lowered so the certified
// partial path is reachable at this size — and on materialized ones. Each
// answer must also equal the in-memory core.Prepared engine bit-for-bit.
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
		}
	}
	t.Logf("%d cold answers from a certified prefix", partial)
	if partial == 0 {
		t.Error("no cold query was answered from a certified prefix")
	}
}
