package junction

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pdb"
)

var chainGrid = []complex128{
	complex(1e-9, 0), complex(0.2, 0), complex(0.5, 0), complex(0.9, 0),
	complex(0.95, 0), complex(1, 0), complex(0.7, 0.2),
}

// withWorkersJ forces real goroutine fan-out for the parallel batch paths on
// single-core hosts, so -race runs observe them concurrently.
func withWorkersJ(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// edgeChains returns adversarial chains: exact score ties, deterministic
// (0/1) transitions, an always-absent variable, and the minimum length.
func edgeChains(t *testing.T) map[string]*Chain {
	t.Helper()
	mk := func(scores []float64, pair [][2][2]float64) *Chain {
		c, err := NewChain(scores, pair)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return map[string]*Chain{
		"ties": mk([]float64{5, 5, 5}, [][2][2]float64{
			{{0.2, 0.3}, {0.25, 0.25}},
			{{0.3, 0.15}, {0.35, 0.2}},
		}),
		"deterministic": mk([]float64{3, 1, 2}, [][2][2]float64{
			{{0, 0}, {0, 1}}, // Y_0 always 1, Y_1 always 1
			{{0, 0}, {1, 0}}, // Y_2 always 0
		}),
		"min-length": mk([]float64{2, 9}, [][2][2]float64{
			{{0.1, 0.4}, {0.2, 0.3}},
		}),
	}
}

func forEachSuiteChain(t *testing.T, fn func(name string, c *Chain)) {
	t.Helper()
	for name, c := range edgeChains(t) {
		fn(name, c)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fn("random", randChain(rng, 2+rng.Intn(10)))
	}
}

// The product-tree PRFe must match the Θ(n³) partial-sum DP reference on
// every chain and α.
func TestPreparedChainPRFeMatchesDP(t *testing.T) {
	forEachSuiteChain(t, func(name string, c *Chain) {
		pc := PrepareChain(c)
		for _, alpha := range chainGrid {
			want := PRFeChainDP(c, alpha)
			got := pc.PRFe(alpha)
			wrapper := PRFeChain(c, alpha)
			for v := range want {
				if cmplx.Abs(got[v]-want[v]) > 1e-10 || cmplx.Abs(wrapper[v]-want[v]) > 1e-10 {
					t.Fatalf("%s: alpha=%v v=%d: product-tree %v wrapper %v, DP %v",
						name, alpha, v, got[v], wrapper[v], want[v])
				}
			}
		}
	})
}

// The product-tree PRFe must match the possible-worlds definition
// Υ_α(t) = Σ_{pw ∋ t} Pr(pw)·α^{rank(t, pw)} exactly computed by
// enumeration — an oracle independent of both chain algorithms.
func TestPreparedChainPRFeMatchesEnumeration(t *testing.T) {
	forEachSuiteChain(t, func(name string, c *Chain) {
		net, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		worlds, err := net.EnumerateWorlds()
		if err != nil {
			t.Fatal(err)
		}
		pc := PrepareChain(c)
		for _, alpha := range chainGrid[1:] {
			want := make([]complex128, c.Len())
			for _, w := range worlds {
				pw := alpha
				for _, id := range w.Present {
					want[id] += complex(w.Prob, 0) * pw
					pw *= alpha
				}
			}
			got := pc.PRFe(alpha)
			for v := range want {
				if cmplx.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("%s: alpha=%v v=%d: got %v want %v", name, alpha, v, got[v], want[v])
				}
			}
		}
	})
}

// Chain batch results are element-wise identical to serial calls.
func TestPreparedChainBatchMatchesSerial(t *testing.T) {
	withWorkersJ(t, 4)
	forEachSuiteChain(t, func(name string, c *Chain) {
		pc := PrepareChain(c)
		batch, err := pc.QueryPRFeBatch(context.Background(), chainGrid)
		if err != nil {
			t.Fatal(err)
		}
		for a, alpha := range chainGrid {
			want := pc.PRFe(alpha)
			for v := range want {
				if batch[a][v] != want[v] {
					t.Fatalf("%s: alpha=%v v=%d: batch %v serial %v", name, alpha, v, batch[a][v], want[v])
				}
			}
		}
		alphas := []float64{0.2, 0.5, 0.9, 1}
		ranks, err := pc.QueryRankPRFeBatch(context.Background(), alphas)
		if err != nil {
			t.Fatal(err)
		}
		for a, alpha := range alphas {
			want := pc.RankPRFe(alpha)
			for i := range want {
				if ranks[a][i] != want[i] {
					t.Fatalf("%s: alpha=%v: batch ranking %v serial %v", name, alpha, ranks[a], want)
				}
			}
		}
	})
}

// The prepared network must reproduce the reference kernels on the same
// calibrated tree bit for bit: rank distribution, PRFe fold, and expected
// ranks — including after the first (cached) query.
func TestPreparedNetworkMatchesJTreeReference(t *testing.T) {
	withWorkersJ(t, 4)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randNetwork(rng, 2+rng.Intn(6))
		pn, err := PrepareNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		jt, err := BuildJunctionTree(net)
		if err != nil {
			t.Fatal(err)
		}
		wantRD := jt.RankDistribution()
		for rep := 0; rep < 2; rep++ {
			gotRD := pn.RankDistribution()
			for v := 0; v < net.Len(); v++ {
				for j := range wantRD.Dist[v] {
					if gotRD.Dist[v][j] != wantRD.Dist[v][j] {
						t.Fatalf("seed=%d v=%d j=%d: rank dist %v want %v",
							seed, v, j, gotRD.Dist[v][j], wantRD.Dist[v][j])
					}
				}
			}
		}
		batch, err := pn.QueryPRFeBatch(context.Background(), chainGrid)
		if err != nil {
			t.Fatal(err)
		}
		for a, alpha := range chainGrid {
			serial := pn.PRFe(alpha)
			for v := 0; v < net.Len(); v++ {
				want := prfeFold(wantRD.Dist[v], alpha)
				if serial[v] != want || batch[a][v] != want {
					t.Fatalf("seed=%d alpha=%v v=%d: serial %v batch %v want %v",
						seed, alpha, v, serial[v], batch[a][v], want)
				}
			}
		}
		wantER := jt.ExpectedRanks()
		gotER := pn.ERank()
		for v := range wantER {
			if gotER[v] != wantER[v] {
				t.Fatalf("seed=%d v=%d: ERank %v want %v", seed, v, gotER[v], wantER[v])
			}
		}
	}
}

// A wide clique whose potential zeroes most assignments: the up-front
// inconsistent-assignment skip must not change any probability. (The DP
// result is pinned against brute-force enumeration.)
func TestWideCliqueSparsePotentialMatchesEnumeration(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(99))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64() * 10
	}
	vars := []int{0, 1, 2, 3, 4, 5}
	table := make([]float64, 1<<n)
	for i := range table {
		// Keep ~1/4 of the assignments; zero the rest.
		if rng.Intn(4) == 0 {
			table[i] = rng.Float64()
		}
	}
	table[0] = 0.5 // ensure a positive entry regardless of the draw
	net, err := NewNetwork(scores, []Factor{{Vars: vars, Table: table}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RankDistribution(net)
	if err != nil {
		t.Fatal(err)
	}
	worlds, err := net.EnumerateWorlds()
	if err != nil {
		t.Fatal(err)
	}
	want := pdb.RankDistributionFromWorlds(worlds, n)
	for id := 0; id < n; id++ {
		for j := 1; j <= n; j++ {
			if diff := math.Abs(got.At(pdb.TupleID(id), j) - want.At(pdb.TupleID(id), j)); diff > 1e-9 {
				t.Fatalf("id=%d j=%d: got %v want %v", id, j, got.At(pdb.TupleID(id), j), want.At(pdb.TupleID(id), j))
			}
		}
	}
}
