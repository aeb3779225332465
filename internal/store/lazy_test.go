package store

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pdb"
)

// lazyFixture imports a random n-tuple independent dataset (integer scores
// force ties; probabilities include exact 0 and 1) and returns a cold lazy
// view plus the fully prepared oracle.
func lazyFixture(t *testing.T, s *Store, n int, seed int64) (*LazyPrepared, *core.Prepared) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(n / 2))
		switch rng.Intn(10) {
		case 0:
			probs[i] = 0
		case 1:
			probs[i] = 1
		default:
			probs[i] = rng.Float64()
		}
		fmt.Fprintf(&b, "%v,%v\n", scores[i], probs[i])
	}
	ds, err := Parse(KindIndependent, strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("lazy-%d-%d", n, seed)
	if _, err := s.Import(name, ds); err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenHandle(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pdb.NewDataset(scores, probs)
	if err != nil {
		t.Fatal(err)
	}
	return NewLazy(h), core.Prepare(d)
}

// TestLazyTopKMatchesFull is the partial≡full contract: for every α grid
// and k, a cold lazy view's QueryTopKPRFeBatch equals the fully prepared
// answer exactly, and for small k it reads only a prefix of the file.
func TestLazyTopKMatchesFull(t *testing.T) {
	ctx := context.Background()
	s := tempStore(t)
	grids := [][]float64{{1}, {0.5}, {1e-3, 0.3, 0.95}, {0.5, 1}}
	for _, n := range []int{64, 1000, 5000} {
		for _, k := range []int{1, 3, 25, 200} {
			if k >= n {
				continue
			}
			for gi, alphas := range grids {
				lz, full := lazyFixture(t, s, n, int64(n*31+k*7+gi))
				got, err := lz.QueryTopKPRFeBatch(ctx, alphas, k)
				if err != nil {
					t.Fatalf("n=%d k=%d grid=%d: lazy: %v", n, k, gi, err)
				}
				want, err := full.QueryTopKPRFeBatch(ctx, alphas, k)
				if err != nil {
					t.Fatalf("n=%d k=%d grid=%d: full: %v", n, k, gi, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d grid=%d: lazy top-k differs\n got %v\nwant %v", n, k, gi, got, want)
				}
				if n == 5000 && k <= 3 && lz.full.Load() == nil {
					// The certified prefix must be a strict minority of the file.
					if read, size := lz.BytesRead(), lz.h.SizeBytes(); read >= size/2 {
						t.Fatalf("n=%d k=%d grid=%d: partial path read %d of %d bytes", n, k, gi, read, size)
					}
				}
			}
		}
	}
}

// TestLazyFallbacksMatchFull pins the edge paths to the full-load result:
// α outside (0,1) and huge k, which decline partial answering, and an
// explicit parallelism limit and k = 0, which the certified selector
// answers from a prefix (top-k has no sharded kernel to defer to).
func TestLazyFallbacksMatchFull(t *testing.T) {
	ctx := context.Background()
	s := tempStore(t)

	cases := []struct {
		name   string
		ctx    context.Context
		alphas []float64
		k      int
	}{
		{"alpha above one", ctx, []float64{1.5}, 5},
		{"alpha zero", ctx, []float64{0}, 5},
		{"alpha negative", ctx, []float64{-0.5}, 5},
		{"mixed grid", ctx, []float64{0.5, 2}, 5},
		{"parallel limit", par.WithLimit(ctx, 4), []float64{0.5}, 5},
		{"k equals n", ctx, []float64{0.5}, 2000},
		{"k zero", ctx, []float64{0.5}, 0},
	}
	for i, tc := range cases {
		lz, full := lazyFixture(t, s, 2000, int64(100+i))
		got, err := lz.QueryTopKPRFeBatch(tc.ctx, tc.alphas, tc.k)
		want, werr := full.QueryTopKPRFeBatch(tc.ctx, tc.alphas, tc.k)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: error mismatch: lazy %v, full %v", tc.name, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results differ", tc.name)
		}
	}
}

// TestLazyWholeRelationMetricsMatchFull forces the full-materialization
// path and checks a sample of every-method delegation bit-for-bit.
func TestLazyWholeRelationMetricsMatchFull(t *testing.T) {
	ctx := context.Background()
	s := tempStore(t)
	lz, full := lazyFixture(t, s, 700, 42)

	gotRank, err := lz.QueryRankPRFe(ctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, err := full.QueryRankPRFe(ctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatal("full ranking differs after materialization")
	}
	// The view is now fully materialized (and the file handle closed);
	// every later query must keep answering, including the top-k fast path.
	if lz.full.Load() == nil {
		t.Fatal("whole-relation query left the view cold")
	}
	for _, fn := range []func() (any, error){
		func() (any, error) { return lz.QueryERank(ctx) },
		func() (any, error) { return lz.QueryExpectedRank(ctx) },
		func() (any, error) { return lz.QueryMedianRank(ctx) },
		func() (any, error) { return lz.QueryPTh(ctx, 5) },
		func() (any, error) { return lz.QueryPRFOmega(ctx, []float64{3, 2, 1}) },
		func() (any, error) { return lz.QueryPRFe(ctx, complex(0.5, 0.25)) },
		func() (any, error) { return lz.QueryTopKPRFeBatch(ctx, []float64{0.7}, 9) },
	} {
		if _, err := fn(); err != nil {
			t.Fatalf("query after materialization: %v", err)
		}
	}
	wantVals, err := full.QueryERank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := lz.QueryERank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotVals, wantVals) {
		t.Fatal("ERank differs after materialization")
	}
}

// TestLazyCanceledContext checks ctx errors surface without wedging the
// view: a canceled query fails, a later good query succeeds.
func TestLazyCanceledContext(t *testing.T) {
	s := tempStore(t)
	lz, full := lazyFixture(t, s, 1200, 77)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lz.QueryTopKPRFeBatch(canceled, []float64{0.5}, 3); err == nil {
		t.Fatal("canceled context answered")
	}
	got, err := lz.QueryTopKPRFeBatch(context.Background(), []float64{0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.QueryTopKPRFeBatch(context.Background(), []float64{0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("top-k differs after a canceled attempt")
	}
}

// TestLazyConcurrentQueries hammers one cold view from many goroutines
// mixing partial top-k and whole-relation queries; every answer must match
// the oracle (run with -race in CI).
func TestLazyConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	s := tempStore(t)
	lz, full := lazyFixture(t, s, 3000, 11)
	wantTopK, err := full.QueryTopKPRFeBatch(ctx, []float64{0.8}, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, err := full.QueryRankPRFe(ctx, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		go func(g int) {
			if g%4 == 0 {
				r, err := lz.QueryRankPRFe(ctx, 0.8)
				if err == nil && !reflect.DeepEqual(r, wantRank) {
					err = fmt.Errorf("goroutine %d: ranking diverged", g)
				}
				errs <- err
				return
			}
			r, err := lz.QueryTopKPRFeBatch(ctx, []float64{0.8}, 7)
			if err == nil && !reflect.DeepEqual(r, wantTopK) {
				err = fmt.Errorf("goroutine %d: top-k diverged", g)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 32; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
