package oracle

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/andxor"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// The three correlated views answer every PRFe query through one shared
// pdb.PRFeFront, and the conformance suite's one-shot references
// (andxor.PRFeValues, junction.PRFe, junction.PRFeChain) run through that
// same front. These tests pin each view's whole PRFe surface to a
// reference that does not: the O(n²) tree re-evaluation, the Θ(n³) chain
// rank-distribution DP, and possible-worlds enumeration of the network.

// prfeSurface is the PRFe part of a correlated view, as the front supplies
// it.
type prfeSurface interface {
	Len() int
	PRFe(alpha complex128) []complex128
	RankPRFe(alpha float64) pdb.Ranking
	QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error)
	QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error)
	QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error)
	QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error)
	QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error)
	QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error)
}

var (
	pinGrid  = []float64{0.15, 0.5, 0.85, 1}
	pinCGrid = []complex128{0.3, complex(0.6, 0.3), complex(0.9, -0.2)}
	pinUs    = []complex128{complex(0.75, 0), complex(-0.25, 0.5), complex(0.1, 0)}
)

// pinPRFe checks every PRFe method of view against ref within the oracle
// tolerance; rankings must be non-increasing in |ref| and top-k answers
// separated from every excluded tuple.
func pinPRFe(t *testing.T, view prfeSurface, ref func(alpha complex128) []complex128) {
	t.Helper()
	ctx := context.Background()
	n := view.Len()
	chk := &Oracle{n: n}
	absKey := func(alpha float64) []float64 {
		key := make([]float64, n)
		for id, v := range ref(complex(alpha, 0)) {
			key[id] = cmplx.Abs(v)
		}
		return key
	}
	ranked := func(what string, r pdb.Ranking, alpha float64, out engine.Output, k int) {
		t.Helper()
		if err := chk.checkRanking(r, absKey(alpha), engine.Query{Output: out, K: k}); err != nil {
			t.Errorf("%s at α=%v: %v", what, alpha, err)
		}
	}
	values := func(what string, got []complex128, err error, alpha complex128) {
		t.Helper()
		if err == nil {
			err = compareComplex(got, ref(alpha), n)
		}
		if err != nil {
			t.Errorf("%s at α=%v: %v", what, alpha, err)
		}
	}

	for _, a := range pinCGrid {
		values("PRFe", view.PRFe(a), nil, a)
		got, err := view.QueryPRFe(ctx, a)
		values("QueryPRFe", got, err, a)
	}
	rows, err := view.QueryPRFeBatch(ctx, pinCGrid)
	if err != nil || len(rows) != len(pinCGrid) {
		t.Fatalf("QueryPRFeBatch: %d rows, %v", len(rows), err)
	}
	for i, a := range pinCGrid {
		values("QueryPRFeBatch", rows[i], nil, a)
	}

	for _, a := range pinGrid {
		ranked("RankPRFe", view.RankPRFe(a), a, engine.OutputRanking, 0)
		r, err := view.QueryRankPRFe(ctx, a)
		if err != nil {
			t.Fatalf("QueryRankPRFe: %v", err)
		}
		ranked("QueryRankPRFe", r, a, engine.OutputRanking, 0)
	}
	ranks, err := view.QueryRankPRFeBatch(ctx, pinGrid)
	if err != nil || len(ranks) != len(pinGrid) {
		t.Fatalf("QueryRankPRFeBatch: %d rankings, %v", len(ranks), err)
	}
	for i, a := range pinGrid {
		ranked("QueryRankPRFeBatch", ranks[i], a, engine.OutputRanking, 0)
	}
	for _, k := range []int{0, 1, n / 2, n, n + 3} {
		tops, err := view.QueryTopKPRFeBatch(ctx, pinGrid, k)
		if err != nil || len(tops) != len(pinGrid) {
			t.Fatalf("QueryTopKPRFeBatch(k=%d): %d answers, %v", k, len(tops), err)
		}
		for i, a := range pinGrid {
			ranked(fmt.Sprintf("QueryTopKPRFeBatch(k=%d)", k), tops[i], a, engine.OutputTopK, k)
		}
	}

	combo, err := view.QueryPRFeCombo(ctx, pinUs, pinCGrid)
	if err == nil {
		want := make([]complex128, n)
		for l, u := range pinUs {
			for id, v := range ref(pinCGrid[l]) {
				want[id] += u * v
			}
		}
		err = compareComplex(combo, want, n)
	}
	if err != nil {
		t.Errorf("QueryPRFeCombo: %v", err)
	}
}

func TestPRFeSurfacePinnedTree(t *testing.T) {
	trees := map[string]*andxor.Tree{}
	for name, groups := range xrelationInstances(t) {
		tr, err := andxor.XTuples(groups)
		if err != nil {
			t.Fatal(err)
		}
		trees["xtuples/"+name] = tr
	}
	for _, n := range []int{1, 40, 150} {
		xor, err := datagen.SynXOR(n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		deep, err := datagen.SynHIGH(n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("syn-xor-%d", n)] = xor
		trees[fmt.Sprintf("syn-high-%d", n)] = deep
	}
	for name, tr := range trees {
		t.Run(name, func(t *testing.T) {
			pinPRFe(t, andxor.PrepareTree(tr), func(a complex128) []complex128 {
				return andxor.PRFeValuesNaive(tr, a)
			})
		})
	}
}

func TestPRFeSurfacePinnedChain(t *testing.T) {
	chains := chainInstances(t)
	r := rand.New(rand.NewSource(4242))
	scores := make([]float64, 60)
	cond := make([][2]float64, len(scores)-1)
	for i := range scores {
		scores[i] = float64(r.Intn(30)) // duplicates: the tie order matters
	}
	for j := range cond {
		cond[j] = [2]float64{r.Float64(), r.Float64()}
	}
	chains["random-60"] = buildChain(t, scores, 0.5, cond)
	for name, c := range chains {
		t.Run(name, func(t *testing.T) {
			pinPRFe(t, junction.PrepareChain(c), func(a complex128) []complex128 {
				return junction.PRFeChainDP(c, a)
			})
		})
	}
}

func TestPRFeSurfacePinnedNetwork(t *testing.T) {
	nets := map[string]*junction.Network{}
	for name, c := range chainInstances(t) {
		net, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		nets["chain/"+name] = net
	}
	for _, n := range []int{1, 6, 12, MaxTuples} {
		nets[fmt.Sprintf("ring-%d", n)] = ringNetwork(t, rand.New(rand.NewSource(int64(900+n))), n)
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			o, err := FromNetwork(net)
			if err != nil {
				t.Fatal(err)
			}
			pn, err := junction.PrepareNetwork(net)
			if err != nil {
				t.Fatal(err)
			}
			pinPRFe(t, pn, o.PRFe)
		})
	}
}

// ringNetwork is a Markov network on n variables: a unary factor on each,
// pairwise factors around a ring and one chord, scores with ties.
func ringNetwork(t *testing.T, r *rand.Rand, n int) *junction.Network {
	t.Helper()
	var edges [][2]int
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	if n > 2 {
		edges = append(edges, [2]int{0, n - 1}, [2]int{0, n / 2})
	}
	return pairwiseNetwork(t, r, n, edges, 0)
}

// pairwiseNetwork is a Markov network on n variables with scores drawn
// from [0, n] (so they tie), a random unary factor on each variable and a
// random pairwise factor per edge. The first zeroes pairwise factors each
// forbid one joint state (a hard constraint).
func pairwiseNetwork(t *testing.T, r *rand.Rand, n int, edges [][2]int, zeroes int) *junction.Network {
	t.Helper()
	scores := make([]float64, n)
	var factors []junction.Factor
	for v := 0; v < n; v++ {
		scores[v] = float64(r.Intn(n + 1))
		p := 0.05 + 0.9*r.Float64()
		factors = append(factors, junction.Factor{Vars: []int{v}, Table: []float64{1 - p, p}})
	}
	for i, e := range edges {
		tbl := make([]float64, 4)
		for j := range tbl {
			tbl[j] = 0.1 + r.Float64()
		}
		if i < zeroes {
			tbl[r.Intn(4)] = 0
		}
		factors = append(factors, junction.Factor{Vars: []int{min(e[0], e[1]), max(e[0], e[1])}, Table: tbl})
	}
	net, err := junction.NewNetwork(scores, factors)
	if err != nil {
		t.Fatal(err)
	}
	return net
}
