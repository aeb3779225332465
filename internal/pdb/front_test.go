package pdb

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeKernel is a PRFeFront backend whose fill is a fixed closed form, so
// the front's answers can be checked against values computed without it,
// and whose states are tracked one by one, so every acquire can be matched
// to exactly one release.
type fakeKernel struct {
	n int
	// onFill runs after every fill (the mid-grid cancellation hook).
	onFill func()

	mu                 sync.Mutex
	live               map[*fakeState]bool
	acquired, released int
	fills              int
	misuse             []string
}

type fakeState struct{ busy bool }

func newFakeKernel(n int) *fakeKernel {
	return &fakeKernel{n: n, live: map[*fakeState]bool{}}
}

func (k *fakeKernel) front() PRFeFront[*fakeKernel, *fakeState] {
	return NewPRFeFront(k, k.n, (*fakeKernel).acquire, (*fakeKernel).fill, (*fakeKernel).release)
}

func (k *fakeKernel) acquire() *fakeState {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := &fakeState{}
	k.live[s] = true
	k.acquired++
	return s
}

func (k *fakeKernel) release(s *fakeState) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.live[s] {
		k.misuse = append(k.misuse, "release of a state not checked out")
	}
	delete(k.live, s)
	k.released++
}

func (k *fakeKernel) fill(s *fakeState, alpha complex128, out []complex128) {
	k.mu.Lock()
	switch {
	case !k.live[s]:
		k.misuse = append(k.misuse, "fill on a state not checked out")
	case s.busy:
		k.misuse = append(k.misuse, "one state filled by two workers at once")
	case len(out) != k.n:
		k.misuse = append(k.misuse, "fill buffer of the wrong length")
	}
	s.busy = true
	k.fills++
	k.mu.Unlock()
	fakeValues(alpha, out)
	k.mu.Lock()
	s.busy = false
	k.mu.Unlock()
	if k.onFill != nil {
		k.onFill()
	}
}

// fakeValues is the kernel's closed form: a spread of magnitudes with ties
// (so RankByAbs's ID tie-break matters) scaled by α.
func fakeValues(alpha complex128, out []complex128) {
	for i := range out {
		out[i] = alpha * complex(float64((3*i+1)%7)+0.5*float64(i%2), float64(i%3))
	}
}

func fakeWant(n int, alpha complex128) []complex128 {
	out := make([]complex128, n)
	fakeValues(alpha, out)
	return out
}

// balanced reports a leaked or doubly released state, a fill on a foreign
// state, or any fill on an empty view.
func (k *fakeKernel) balanced(t *testing.T, what string) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.acquired != k.released || len(k.live) != 0 {
		t.Errorf("%s: %d states acquired, %d released, %d live", what, k.acquired, k.released, len(k.live))
	}
	if k.n == 0 && (k.acquired != 0 || k.fills != 0) {
		t.Errorf("%s: empty view acquired %d states and ran %d fills", what, k.acquired, k.fills)
	}
	for _, m := range k.misuse {
		t.Errorf("%s: %s", what, m)
	}
}

func (k *fakeKernel) reset() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.acquired, k.released, k.fills, k.misuse = 0, 0, 0, nil
}

func sameComplex(a, b []complex128) bool {
	return slices.EqualFunc(a, b, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
}

func fakeGrid(points int) []float64 {
	g := make([]float64, points)
	for i := range g {
		// Not monotone: the front has no sweep path, every point stands alone.
		g[i] = float64((5*i)%points+1) / float64(points)
	}
	return g
}

// TestPRFeFrontFakeKernel drives every front method over a fake kernel:
// answers equal the closed form computed without the front, top-k cuts
// every k in {0, 1, n, n+5}, and every state acquired is released.
func TestPRFeFrontFakeKernel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers even on one CPU
	ctx := context.Background()
	for _, n := range []int{0, 1, 7, 40} {
		for _, points := range []int{1, 16} {
			k := newFakeKernel(n)
			f := k.front()
			grid := fakeGrid(points)
			cgrid := make([]complex128, points)
			for a, x := range grid {
				cgrid[a] = complex(x, -x/3)
			}

			if got := f.PRFe(cgrid[0]); !sameComplex(got, fakeWant(n, cgrid[0])) {
				t.Errorf("n=%d: PRFe = %v", n, got)
			}
			k.balanced(t, "PRFe")
			if got := f.RankPRFe(grid[0]); !slices.Equal(got, RankByAbs(fakeWant(n, complex(grid[0], 0)))) || len(got) != n {
				t.Errorf("n=%d: RankPRFe = %v", n, got)
			}
			k.balanced(t, "RankPRFe")
			if got, err := f.QueryPRFe(ctx, cgrid[0]); err != nil || !sameComplex(got, fakeWant(n, cgrid[0])) {
				t.Errorf("n=%d: QueryPRFe = %v, %v", n, got, err)
			}
			if got, err := f.QueryRankPRFe(ctx, grid[0]); err != nil || !slices.Equal(got, RankByAbs(fakeWant(n, complex(grid[0], 0)))) {
				t.Errorf("n=%d: QueryRankPRFe = %v, %v", n, got, err)
			}

			rows, err := f.QueryPRFeBatch(ctx, cgrid)
			if err != nil || len(rows) != points {
				t.Fatalf("n=%d points=%d: QueryPRFeBatch: %d rows, %v", n, points, len(rows), err)
			}
			for a := range rows {
				if !sameComplex(rows[a], fakeWant(n, cgrid[a])) {
					t.Errorf("n=%d: QueryPRFeBatch[%d] = %v", n, a, rows[a])
				}
			}
			k.balanced(t, "QueryPRFeBatch")

			ranks, err := f.QueryRankPRFeBatch(ctx, grid)
			if err != nil || len(ranks) != points {
				t.Fatalf("n=%d points=%d: QueryRankPRFeBatch: %d rankings, %v", n, points, len(ranks), err)
			}
			for a, r := range ranks {
				if want := RankByAbs(fakeWant(n, complex(grid[a], 0))); !slices.Equal(r, want) || r == nil {
					t.Errorf("n=%d: QueryRankPRFeBatch[%d] = %v, want %v", n, a, r, want)
				}
			}
			k.balanced(t, "QueryRankPRFeBatch")

			for _, kk := range []int{0, 1, n, n + 5} {
				tops, err := f.QueryTopKPRFeBatch(ctx, grid, kk)
				if err != nil || len(tops) != points {
					t.Fatalf("n=%d k=%d: QueryTopKPRFeBatch: %d answers, %v", n, kk, len(tops), err)
				}
				for a, r := range tops {
					want := RankByAbs(fakeWant(n, complex(grid[a], 0))).TopK(kk)
					if !slices.Equal(r, want) || len(r) != min(kk, n) {
						t.Errorf("n=%d k=%d: QueryTopKPRFeBatch[%d] = %v, want %v", n, kk, a, r, want)
					}
				}
				k.balanced(t, "QueryTopKPRFeBatch")
			}

			us := make([]complex128, points)
			want := make([]complex128, n)
			for l := range us {
				us[l] = complex(1/float64(l+1), float64(l%2))
				for i, v := range fakeWant(n, cgrid[l]) {
					want[i] += us[l] * v
				}
			}
			if got, err := f.QueryPRFeCombo(ctx, us, cgrid); err != nil || !sameComplex(got, want) {
				t.Errorf("n=%d points=%d: QueryPRFeCombo = %v, %v; want %v", n, points, got, err, want)
			}
			k.balanced(t, "QueryPRFeCombo")
		}
	}
}

// TestPRFeFrontRejectsBeforeAcquire: a malformed α, grid, k or combo is an
// error before the kernel is touched.
func TestPRFeFrontRejectsBeforeAcquire(t *testing.T) {
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	k := newFakeKernel(5)
	f := k.front()
	bad := map[string]func() error{
		"QueryPRFe NaN": func() error { _, err := f.QueryPRFe(ctx, complex(nan, 0)); return err },
		"QueryRankPRFe Inf": func() error {
			_, err := f.QueryRankPRFe(ctx, inf)
			return err
		},
		"QueryPRFeBatch empty": func() error { _, err := f.QueryPRFeBatch(ctx, nil); return err },
		"QueryPRFeBatch NaN point": func() error {
			_, err := f.QueryPRFeBatch(ctx, []complex128{0.5, complex(0, nan)})
			return err
		},
		"QueryRankPRFeBatch empty": func() error { _, err := f.QueryRankPRFeBatch(ctx, []float64{}); return err },
		"QueryRankPRFeBatch Inf point": func() error {
			_, err := f.QueryRankPRFeBatch(ctx, []float64{0.5, -inf})
			return err
		},
		"QueryTopKPRFeBatch negative k": func() error {
			_, err := f.QueryTopKPRFeBatch(ctx, []float64{0.5}, -1)
			return err
		},
		"QueryTopKPRFeBatch NaN point": func() error {
			_, err := f.QueryTopKPRFeBatch(ctx, []float64{nan}, 2)
			return err
		},
		"QueryPRFeCombo length mismatch": func() error {
			_, err := f.QueryPRFeCombo(ctx, []complex128{1}, []complex128{0.5, 0.6})
			return err
		},
		"QueryPRFeCombo no terms": func() error { _, err := f.QueryPRFeCombo(ctx, nil, nil); return err },
		"QueryPRFeCombo NaN coefficient": func() error {
			_, err := f.QueryPRFeCombo(ctx, []complex128{complex(nan, 0)}, []complex128{0.5})
			return err
		},
		"QueryPRFeCombo Inf α": func() error {
			_, err := f.QueryPRFeCombo(ctx, []complex128{1}, []complex128{complex(inf, 0)})
			return err
		},
	}
	for name, call := range bad {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if k.acquired != 0 || k.fills != 0 {
			t.Fatalf("%s: kernel touched before rejection (%d acquires, %d fills)", name, k.acquired, k.fills)
		}
	}
}

// TestPRFeFrontCancelReleasesStates: a context canceled before the call
// or mid-grid ends every batch method with the context's error, and every
// state the workers checked out is still released.
func TestPRFeFrontCancelReleasesStates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	grid := fakeGrid(16)
	cgrid := make([]complex128, len(grid))
	us := make([]complex128, len(grid))
	for a, x := range grid {
		cgrid[a], us[a] = complex(x, 0), 1
	}
	calls := map[string]func(context.Context, *PRFeFront[*fakeKernel, *fakeState]) error{
		"QueryPRFe": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryPRFe(ctx, cgrid[0])
			return err
		},
		"QueryRankPRFe": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryRankPRFe(ctx, grid[0])
			return err
		},
		"QueryPRFeBatch": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryPRFeBatch(ctx, cgrid)
			return err
		},
		"QueryRankPRFeBatch": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryRankPRFeBatch(ctx, grid)
			return err
		},
		"QueryTopKPRFeBatch": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryTopKPRFeBatch(ctx, grid, 3)
			return err
		},
		"QueryPRFeCombo": func(ctx context.Context, f *PRFeFront[*fakeKernel, *fakeState]) error {
			_, err := f.QueryPRFeCombo(ctx, us, cgrid)
			return err
		},
	}
	for name, call := range calls {
		k := newFakeKernel(12)
		f := k.front()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := call(ctx, &f); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-canceled context: err = %v", name, err)
		}
		if k.acquired != 0 {
			t.Errorf("%s: pre-canceled context acquired %d states", name, k.acquired)
		}

		if name == "QueryPRFe" || name == "QueryRankPRFe" {
			continue // one evaluation: no grid to cut
		}
		k.reset()
		ctx, cancel = context.WithCancel(context.Background())
		var once sync.Once
		fills := 0
		var mu sync.Mutex
		k.onFill = func() {
			mu.Lock()
			fills++
			third := fills == 3
			mu.Unlock()
			if third {
				once.Do(cancel)
			}
		}
		if err := call(ctx, &f); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled mid-grid: err = %v", name, err)
		}
		cancel()
		if k.acquired == 0 {
			t.Errorf("%s: mid-grid cancellation ran no state", name)
		}
		k.balanced(t, name+" canceled mid-grid")
	}
}

// TestPRFeFrontNilRelease: a backend with nothing to hand back (the
// network's state is its cached matrix) passes a nil release.
func TestPRFeFrontNilRelease(t *testing.T) {
	var acquires atomic.Int32
	f := NewPRFeFront(&acquires, 3, func(a *atomic.Int32) int { a.Add(1); return 7 }, func(_ *atomic.Int32, s int, alpha complex128, out []complex128) {
		for i := range out {
			out[i] = alpha * complex(float64(s+i), 0)
		}
	}, nil)
	got, err := f.QueryPRFeBatch(context.Background(), []complex128{1, 2})
	if err != nil || !sameComplex(got[1], []complex128{14, 16, 18}) {
		t.Fatalf("nil-release batch = %v, %v", got, err)
	}
	if acquires.Load() == 0 {
		t.Fatal("no state acquired")
	}
}
