package junction

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pdb"
)

// randDegenerateChain builds a calibrated chain whose initial marginal and
// transitions are drawn from {0, 1, uniform}, so zero marginals (a state
// that never occurs) and zero conditionals (a transition that never
// happens) are common, and whose scores tie often.
func randDegenerateChain(rng *rand.Rand, n int) *Chain {
	pick := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		default:
			return rng.Float64()
		}
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(n/2 + 1))
	}
	marg := [2]float64{}
	marg[1] = pick()
	marg[0] = 1 - marg[1]
	pair := make([][2][2]float64, n-1)
	for j := range pair {
		var next [2]float64
		for a := 0; a < 2; a++ {
			t1 := pick() // Pr(Y_{j+1}=1 | Y_j=a)
			pair[j][a][1] = marg[a] * t1
			pair[j][a][0] = marg[a] * (1 - t1)
			next[1] += pair[j][a][1]
			next[0] += pair[j][a][0]
		}
		marg = next
	}
	c, err := NewChain(scores, pair)
	if err != nil {
		panic(err)
	}
	return c
}

// kernelChains are the chains the truncated-DP tests run on: the edge
// suite plus seeded random and degenerate chains.
func kernelChains(t *testing.T) map[string]*Chain {
	t.Helper()
	out := edgeChains(t)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out["random/"+string(rune('a'+seed))] = randChain(rng, 2+rng.Intn(24))
		out["degenerate/"+string(rune('a'+seed))] = randDegenerateChain(rng, 2+rng.Intn(24))
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// PT(h) and PRFω(h) run the partial-sum DP truncated to h coefficients;
// QueryPRF folds the untruncated rank-distribution matrix with the same
// weights. Truncation only drops coefficients the weights never read, so
// the two must agree bit for bit — and the truncated path must not build
// the matrix.
func TestChainTruncatedMatchesMatrix(t *testing.T) {
	ctx := context.Background()
	for name, c := range kernelChains(t) {
		n := c.Len()
		pc := PrepareChain(c)
		for _, h := range []int{0, 1, 2, n - 1, n, n + 5} {
			got, err := pc.QueryPTh(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			if pc.rd != nil {
				t.Fatalf("%s: PT(%d) built the rank-distribution matrix", name, h)
			}
			want, err := PrepareChain(c).QueryPRF(ctx, stepOmega(h))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: PT(%d) truncated %v, matrix fold %v", name, h, got, want)
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for l := 1; l <= n+3; l++ {
			w := make([]float64, l)
			for i := range w {
				if rng.Intn(4) != 0 {
					w[i] = rng.NormFloat64()
				}
			}
			got, err := pc.QueryPRFOmega(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pc.QueryPRF(ctx, weightVecOmega(w))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: PRFω len %d truncated %v, matrix fold %v", name, l, got, want)
			}
		}
	}
}

// The chain DP's rank distribution must match the generic junction-tree
// pipeline run on the same chain as a Markov network.
func TestChainRankDistributionMatchesNetwork(t *testing.T) {
	for name, c := range kernelChains(t) {
		net, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		want, err := RankDistribution(net)
		if err != nil {
			t.Fatal(err)
		}
		got := c.RankDistribution()
		for v := 0; v < c.Len(); v++ {
			for j := 1; j <= c.Len(); j++ {
				if d := math.Abs(got.At(pdb.TupleID(v), j) - want.At(pdb.TupleID(v), j)); d > 1e-12 {
					t.Fatalf("%s: v=%d rank %d: chain DP %v, junction tree %v",
						name, v, j, got.At(pdb.TupleID(v), j), want.At(pdb.TupleID(v), j))
				}
			}
		}
	}
}

// A canceled caller must get control back at once, not after an O(n²·h)
// evaluation: the truncated DP checks ctx once per tuple.
func TestChainPThCanceled(t *testing.T) {
	c := randChain(rand.New(rand.NewSource(3)), 2000)
	pc := PrepareChain(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := pc.QueryPTh(ctx, c.Len()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PT(h) on a canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := pc.QueryPRFOmega(ctx, []float64{1, 0.5, 0.25}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PRFω on a canceled ctx: %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("canceled queries took %v", el)
	}
}

// closeScaled reports whether every a[i] and b[i] agree within tol scaled
// by max(1, |a[i]|, |b[i]|).
func closeScaled(a, b []float64, tol float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*max(1, math.Abs(a[i]), math.Abs(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// Chain E-Rank and Expected-Rank sum pairwise joints from two-state walks;
// neither may build the rank-distribution matrix.
func TestChainERankLeavesMatrixUnbuilt(t *testing.T) {
	ctx := context.Background()
	for name, c := range kernelChains(t) {
		pc := PrepareChain(c)
		if _, err := pc.QueryERank(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.QueryExpectedRank(ctx); err != nil {
			t.Fatal(err)
		}
		if pc.rd != nil {
			t.Fatalf("%s: E-Rank built the rank-distribution matrix", name)
		}
	}
}

// The chain's pair-joint walk and the junction tree's per-tuple DP are two
// kernels for the same expectation; they must agree beyond oracle size, on
// random and on degenerate chains (zero marginals, ties).
func TestChainERankMatchesNetwork(t *testing.T) {
	ctx := context.Background()
	chains := kernelChains(t)
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{60, 200} {
		chains[fmt.Sprintf("random-%d", n)] = randChain(rng, n)
		chains[fmt.Sprintf("degenerate-%d", n)] = randDegenerateChain(rng, n)
	}
	for name, c := range chains {
		net, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		pn, err := PrepareNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		pc := PrepareChain(c)
		for _, m := range []struct {
			metric       string
			chain, netwk func(context.Context) ([]float64, error)
		}{
			{"E-Rank", pc.QueryERank, pn.QueryERank},
			{"Expected-Rank", pc.QueryExpectedRank, pn.QueryExpectedRank},
		} {
			got, err := m.chain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.netwk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := closeScaled(got, want, 1e-12); !ok {
				t.Fatalf("%s: %s v=%d: chain %v, network %v", name, m.metric, i, got[i], want[i])
			}
		}
	}
}

// lapsingCtx reports its deadline as passed from the (after+1)-th Err call
// on: a deadline that lapses at a fixed point inside a query too short to
// time one against.
type lapsingCtx struct {
	context.Context
	calls, after int
}

func (c *lapsingCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// A deadline that lapses mid-query must end the query soon after: network
// E-Rank checks ctx per tuple DP, and the matrix folds per row.
func TestNetworkDeadlineMidQuery(t *testing.T) {
	c := randChain(rand.New(rand.NewSource(4)), 300)
	net, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*PreparedNetwork, 3)
	for i := range views {
		if views[i], err = PrepareNetwork(net); err != nil {
			t.Fatal(err)
		}
	}
	erView, xrView, cached := views[0], views[1], views[2] // the first two stay fresh
	cached.RankDistribution()                              // only the fold is left
	const deadline = 20 * time.Millisecond
	for _, tc := range []struct {
		name  string
		query func(ctx context.Context) error
	}{
		{"E-Rank", func(ctx context.Context) error { _, err := erView.QueryERank(ctx); return err }},
		{"Expected-Rank", func(ctx context.Context) error { _, err := xrView.QueryExpectedRank(ctx); return err }},
		{"PRF", func(ctx context.Context) error {
			// ω outlives the deadline on its first call.
			_, err := cached.QueryPRF(ctx, func(pdb.Tuple, int) float64 { <-ctx.Done(); return 1 })
			return err
		}},
		{"PT(h)", func(context.Context) error {
			// The PT(h) fold is too short to time a deadline against, so
			// this one lapses right after the entry check.
			_, err := cached.QueryPTh(&lapsingCtx{Context: context.Background(), after: 1}, 10)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			if err := tc.query(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("past its deadline: %v, want context.DeadlineExceeded", err)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("returned %v after a %v deadline", el, deadline)
			}
		})
	}
}
