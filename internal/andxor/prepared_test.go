package andxor

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pdb"
)

// preparedGrid is the α grid the equivalence suite sweeps: interior points,
// the α→0 and α=1 boundaries, and a complex point (the DFT-approximation
// regime).
var preparedGrid = []complex128{
	complex(1e-9, 0), complex(0.1, 0), complex(0.5, 0), complex(0.9, 0),
	complex(0.95, 0), complex(1, 0), complex(0.8, 0.3),
}

// edgeTrees returns the adversarial fixtures: score ties, zero edge
// probabilities, single-tuple parts, a single-leaf tree, and x-tuple groups
// with one alternative.
func edgeTrees(t *testing.T) map[string]*Tree {
	t.Helper()
	mk := func(root *Node) *Tree {
		tree, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	ties := mk(NewAnd(
		NewXor([]float64{0.4}, NewLeaf(10)),
		NewXor([]float64{0.7}, NewLeaf(10)),
		NewXor([]float64{0.2, 0.8}, NewLeaf(10), NewLeaf(10)),
	))
	zeros := mk(NewAnd(
		NewXor([]float64{0, 0.5}, NewLeaf(30), NewLeaf(20)),
		NewXor([]float64{0}, NewLeaf(50)),
		NewXor([]float64{1}, NewLeaf(40)),
	))
	single := mk(NewLeaf(7))
	xt, err := XTuples([][]Alternative{
		{{Score: 5, Prob: 1}},
		{{Score: 3, Prob: 0.25}},
		{{Score: 9, Prob: 0.5}, {Score: 1, Prob: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Tree{"ties": ties, "zero-probs": zeros, "single-leaf": single, "single-part-xtuples": xt}
}

// forEachSuiteTree runs fn over the edge fixtures and a set of random trees.
func forEachSuiteTree(t *testing.T, fn func(name string, tree *Tree)) {
	t.Helper()
	for name, tree := range edgeTrees(t) {
		fn(name, tree)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fn("random", mustRandomTree(t, rng, 3+rng.Intn(20)))
	}
}

// The prepared path must return, bit for bit, what a fresh per-query
// evaluation returns — across pooled-state reuse at many α values.
func TestPreparedPRFeMatchesFreshEvaluation(t *testing.T) {
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		for _, alpha := range preparedGrid {
			want := PrepareTree(tree).PRFe(alpha) // fresh view: no reused state
			got := pt.PRFe(alpha)                 // shared view: pooled, reset state
			wrapper := PRFeValues(tree, alpha)    // one-shot wrapper
			for id := range want {
				if got[id] != want[id] || wrapper[id] != want[id] {
					t.Fatalf("%s: alpha=%v id=%d: prepared %v / wrapper %v, want %v",
						name, alpha, id, got[id], wrapper[id], want[id])
				}
			}
		}
	})
}

// The prepared incremental values must agree with the O(n²) naive
// re-evaluation oracle.
func TestPreparedPRFeMatchesNaive(t *testing.T) {
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		for _, alpha := range preparedGrid {
			want := PRFeValuesNaive(tree, alpha)
			got := pt.PRFe(alpha)
			for id := range want {
				if cmplx.Abs(got[id]-want[id]) > 1e-9 {
					t.Fatalf("%s: alpha=%v id=%d: got %v want %v", name, alpha, id, got[id], want[id])
				}
			}
		}
	})
}

// withWorkers forces the parallel fan-out to really spawn goroutines even on
// a single-core host, so -race runs observe the batch paths concurrently.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// Batch results are defined to be element-wise identical to serial calls.
func TestPreparedPRFeBatchMatchesSerial(t *testing.T) {
	withWorkers(t, 4)
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		batch, err := pt.QueryPRFeBatch(context.Background(), preparedGrid)
		if err != nil {
			t.Fatal(err)
		}
		for a, alpha := range preparedGrid {
			want := pt.PRFe(alpha)
			for id := range want {
				if batch[a][id] != want[id] {
					t.Fatalf("%s: alpha=%v id=%d: batch %v serial %v", name, alpha, id, batch[a][id], want[id])
				}
			}
		}
	})
}

// Ranking batches (full and top-k) must reproduce the serial rankings.
func TestPreparedRankBatchesMatchSerial(t *testing.T) {
	withWorkers(t, 4)
	alphas := []float64{1e-9, 0.25, 0.5, 0.75, 0.95, 1}
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		ranks, err := pt.QueryRankPRFeBatch(context.Background(), alphas)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + tree.Len()/2
		tops, err := pt.QueryTopKPRFeBatch(context.Background(), alphas, k)
		if err != nil {
			t.Fatal(err)
		}
		for a, alpha := range alphas {
			want := pt.RankPRFe(alpha)
			wrapper := RankPRFe(tree, alpha)
			if !rankingsEqual(ranks[a], want) || !rankingsEqual(wrapper, want) {
				t.Fatalf("%s: alpha=%v: batch %v wrapper %v serial %v", name, alpha, ranks[a], wrapper, want)
			}
			if !rankingsEqual(tops[a], want.TopK(k)) {
				t.Fatalf("%s: alpha=%v: topk batch %v want %v", name, alpha, tops[a], want.TopK(k))
			}
		}
	})
}

func rankingsEqual(a, b pdb.Ranking) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The prepared combo must equal the per-term sum in term order, bit for bit.
func TestPreparedComboMatchesPerTermSum(t *testing.T) {
	withWorkers(t, 4)
	us := []complex128{complex(0.5, 0.1), complex(-0.3, 0), complex(1.1, -0.2)}
	alphas := []complex128{complex(0.9, 0), complex(0.5, 0.2), complex(0.99, 0)}
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		want := make([]complex128, tree.Len())
		for l := range us {
			vals := pt.PRFe(alphas[l])
			for i, v := range vals {
				want[i] += us[l] * v
			}
		}
		got, err := pt.QueryPRFeCombo(context.Background(), us, alphas)
		if err != nil {
			t.Fatal(err)
		}
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("%s: id=%d: combo %v want %v", name, id, got[id], want[id])
			}
		}
	})
}

// Prepared expected ranks must equal the one-shot wrapper and stay stable
// across repeated evaluations on the shared view.
func TestPreparedERankMatchesOneShot(t *testing.T) {
	forEachSuiteTree(t, func(name string, tree *Tree) {
		pt := PrepareTree(tree)
		want := ExpectedRanks(tree)
		for rep := 0; rep < 2; rep++ {
			got := pt.ERank()
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("%s: rep=%d id=%d: got %v want %v", name, rep, id, got[id], want[id])
				}
			}
		}
	})
}

// On an x-relation the pair joints are known in closed form: Pr(s ∧ t) = 0
// inside a group and p_s·p_t across groups. The dual-number walk must agree
// with E|pw| − Σ_{s ranked after t} Pr(s ∧ t) beyond oracle size.
func TestXRelationERankMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var groups [][]Alternative
	for n := 0; n < 150; {
		alts := make([]Alternative, 1+rng.Intn(4))
		mass := rng.Float64()
		for i := range alts {
			alts[i] = Alternative{Score: float64(rng.Intn(60)), Prob: mass / float64(len(alts))}
		}
		groups = append(groups, alts)
		n += len(alts)
	}
	tree, err := XTuples(groups)
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Len()
	order := tree.sortedLeafOrder()
	var c float64
	for id := 0; id < n; id++ {
		c += tree.Leaf(pdb.TupleID(id)).Prob
	}
	want := make([]float64, n)
	for i, id := range order {
		want[id] = c
		for _, s := range order[i+1:] {
			if tree.LeafKey(s) != tree.LeafKey(id) {
				want[id] -= tree.Leaf(s).Prob * tree.Leaf(id).Prob
			}
		}
	}
	pt := PrepareTree(tree)
	got, err := pt.QueryERank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotX, err := pt.QueryExpectedRank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		wantX := want[id] + 1 - tree.Leaf(pdb.TupleID(id)).Prob
		if math.Abs(got[id]-want[id]) > 1e-12*max(1, math.Abs(want[id])) ||
			math.Abs(gotX[id]-wantX) > 1e-12*max(1, math.Abs(wantX)) {
			t.Fatalf("id=%d: E-Rank %v, Expected-Rank %v; closed form %v, %v", id, got[id], gotX[id], want[id], wantX)
		}
	}
}
