package junction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/pdb"
)

func randDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64() * 100
		probs[i] = rng.Float64()
	}
	return pdb.MustDataset(scores, probs)
}

// randNetwork builds a random Markov network: unary factors on every
// variable plus random pairwise/ternary factors.
func randNetwork(rng *rand.Rand, n int) *Network {
	factors := make([]Factor, 0, 2*n)
	scores := make([]float64, n)
	for v := 0; v < n; v++ {
		scores[v] = rng.Float64() * 100
		p := 0.05 + 0.9*rng.Float64()
		factors = append(factors, Factor{Vars: []int{v}, Table: []float64{1 - p, p}})
	}
	extra := rng.Intn(n + 1)
	for e := 0; e < extra; e++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		tbl := make([]float64, 4)
		for i := range tbl {
			tbl[i] = 0.1 + rng.Float64()
		}
		factors = append(factors, Factor{Vars: []int{a, b}, Table: tbl})
	}
	if n >= 3 && rng.Intn(2) == 0 {
		vs := rng.Perm(n)[:3]
		if vs[0] > vs[1] {
			vs[0], vs[1] = vs[1], vs[0]
		}
		if vs[1] > vs[2] {
			vs[1], vs[2] = vs[2], vs[1]
		}
		if vs[0] > vs[1] {
			vs[0], vs[1] = vs[1], vs[0]
		}
		tbl := make([]float64, 8)
		for i := range tbl {
			tbl[i] = 0.1 + rng.Float64()
		}
		factors = append(factors, Factor{Vars: []int{vs[0], vs[1], vs[2]}, Table: tbl})
	}
	net, err := NewNetwork(scores, factors)
	if err != nil {
		panic(err)
	}
	return net
}

func TestNetworkValidation(t *testing.T) {
	cases := []struct {
		name    string
		scores  []float64
		factors []Factor
	}{
		{"empty", nil, nil},
		{"uncovered variable", []float64{1, 2}, []Factor{{Vars: []int{0}, Table: []float64{0.5, 0.5}}}},
		{"bad table size", []float64{1}, []Factor{{Vars: []int{0}, Table: []float64{0.5}}}},
		{"negative entry", []float64{1}, []Factor{{Vars: []int{0}, Table: []float64{-1, 2}}}},
		{"unsorted scope", []float64{1, 2}, []Factor{{Vars: []int{1, 0}, Table: []float64{1, 1, 1, 1}}}},
		{"out of range", []float64{1}, []Factor{{Vars: []int{3}, Table: []float64{1, 1}}}},
		{"nan score", []float64{math.NaN()}, []Factor{{Vars: []int{0}, Table: []float64{1, 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewNetwork(c.scores, c.factors); err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
		})
	}
}

func TestZeroDistributionRejected(t *testing.T) {
	net, err := NewNetwork([]float64{1}, []Factor{{Vars: []int{0}, Table: []float64{0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildJunctionTree(net); err == nil {
		t.Fatal("expected zero partition function error")
	}
	if _, err := net.EnumerateWorlds(); err == nil {
		t.Fatal("expected enumeration error for zero distribution")
	}
}

func TestIndependentNetworkMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 12)
	net, err := FromIndependent(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RankDistribution(net)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RankDistribution(d)
	for id := 0; id < 12; id++ {
		for j := 1; j <= 12; j++ {
			g, w := got.At(pdb.TupleID(id), j), want.At(pdb.TupleID(id), j)
			if math.Abs(g-w) > 1e-9 {
				t.Fatalf("id=%d j=%d: %v vs %v", id, j, g, w)
			}
		}
	}
}

func TestCalibratedMarginalsMatchEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randNetwork(rng, 2+rng.Intn(7))
		jt, err := BuildJunctionTree(net)
		if err != nil {
			return false
		}
		worlds, err := net.EnumerateWorlds()
		if err != nil {
			return false
		}
		for v := 0; v < net.Len(); v++ {
			var want float64
			for _, w := range worlds {
				if w.Rank(pdb.TupleID(v)) > 0 {
					want += w.Prob
				}
			}
			if math.Abs(jt.VariableMarginal(v)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The Section 9.4 DP must reproduce enumeration on arbitrary networks.
func TestQuickRankDistributionMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randNetwork(rng, 2+rng.Intn(7))
		got, err := RankDistribution(net)
		if err != nil {
			return false
		}
		worlds, err := net.EnumerateWorlds()
		if err != nil {
			return false
		}
		want := pdb.RankDistributionFromWorlds(worlds, net.Len())
		for id := 0; id < net.Len(); id++ {
			for j := 1; j <= net.Len(); j++ {
				if math.Abs(got.At(pdb.TupleID(id), j)-want.At(pdb.TupleID(id), j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreewidths(t *testing.T) {
	// A chain has treewidth 1.
	scores := []float64{4, 3, 2, 1}
	factors := []Factor{
		{Vars: []int{0}, Table: []float64{0.5, 0.5}},
		{Vars: []int{1}, Table: []float64{0.5, 0.5}},
		{Vars: []int{2}, Table: []float64{0.5, 0.5}},
		{Vars: []int{3}, Table: []float64{0.5, 0.5}},
		{Vars: []int{0, 1}, Table: []float64{1, 2, 3, 4}},
		{Vars: []int{1, 2}, Table: []float64{1, 2, 3, 4}},
		{Vars: []int{2, 3}, Table: []float64{1, 2, 3, 4}},
	}
	net, err := NewNetwork(scores, factors)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := BuildJunctionTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Treewidth() != 1 {
		t.Fatalf("chain treewidth %d, want 1", jt.Treewidth())
	}
	// A triangle factor forces treewidth 2.
	factors = append(factors, Factor{Vars: []int{0, 1, 2}, Table: []float64{1, 1, 1, 1, 1, 1, 1, 1}})
	net2, _ := NewNetwork(scores, factors)
	jt2, err := BuildJunctionTree(net2)
	if err != nil {
		t.Fatal(err)
	}
	if jt2.Treewidth() != 2 {
		t.Fatalf("triangle treewidth %d, want 2", jt2.Treewidth())
	}
}

func TestDisconnectedComponents(t *testing.T) {
	// Two independent pairs: the spanning tree must bridge them with an
	// empty separator and still produce exact results.
	scores := []float64{4, 3, 2, 1}
	factors := []Factor{
		{Vars: []int{0, 1}, Table: []float64{0.1, 0.2, 0.3, 0.4}},
		{Vars: []int{2, 3}, Table: []float64{0.4, 0.3, 0.2, 0.1}},
	}
	net, err := NewNetwork(scores, factors)
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
	want := pdb.RankDistributionFromWorlds(worlds, 4)
	for id := 0; id < 4; id++ {
		for j := 1; j <= 4; j++ {
			if math.Abs(got.At(pdb.TupleID(id), j)-want.At(pdb.TupleID(id), j)) > 1e-9 {
				t.Fatalf("id=%d j=%d: %v vs %v", id, j,
					got.At(pdb.TupleID(id), j), want.At(pdb.TupleID(id), j))
			}
		}
	}
}

// randChain builds a random calibrated chain via random initial marginal and
// random stochastic transitions.
func randChain(rng *rand.Rand, n int) *Chain {
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64() * 100
	}
	marg := [2]float64{}
	marg[1] = 0.1 + 0.8*rng.Float64()
	marg[0] = 1 - marg[1]
	pair := make([][2][2]float64, n-1)
	for j := 0; j < n-1; j++ {
		var next [2]float64
		for a := 0; a < 2; a++ {
			t1 := 0.1 + 0.8*rng.Float64() // Pr(Y_{j+1}=1 | Y_j=a)
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

func TestQuickChainMatchesGenericAndEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		c := randChain(rng, n)
		direct := c.RankDistribution()
		net, err := c.Network()
		if err != nil {
			return false
		}
		generic, err := RankDistribution(net)
		if err != nil {
			return false
		}
		worlds, err := net.EnumerateWorlds()
		if err != nil {
			return false
		}
		want := pdb.RankDistributionFromWorlds(worlds, n)
		for id := 0; id < n; id++ {
			for j := 1; j <= n; j++ {
				w := want.At(pdb.TupleID(id), j)
				if math.Abs(direct.At(pdb.TupleID(id), j)-w) > 1e-9 {
					return false
				}
				if math.Abs(generic.At(pdb.TupleID(id), j)-w) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain([]float64{1}, nil); err == nil {
		t.Fatal("single-variable chain should fail")
	}
	// Table not summing to 1.
	bad := [][2][2]float64{{{0.5, 0.5}, {0.5, 0.5}}}
	if _, err := NewChain([]float64{1, 2}, bad); err == nil {
		t.Fatal("non-distribution pair should fail")
	}
	// Inconsistent adjacent marginals.
	p1 := [2][2]float64{{0.25, 0.25}, {0.25, 0.25}} // Pr(Y_1=1)=0.5
	p2 := [2][2]float64{{0.7, 0.1}, {0.1, 0.1}}     // Pr(Y_1=1)=0.2
	if _, err := NewChain([]float64{3, 2, 1}, [][2][2]float64{p1, p2}); err == nil {
		t.Fatal("inconsistent marginals should fail")
	}
}

func TestPRFOnNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := randNetwork(rng, 6)
	worlds, err := net.EnumerateWorlds()
	if err != nil {
		t.Fatal(err)
	}
	rd := pdb.RankDistributionFromWorlds(worlds, 6)
	// PT(2) weights via generic PRF.
	pn, err := PrepareNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	got := pn.PRF(func(_ pdb.Tuple, rank int) float64 {
		if rank <= 2 {
			return 1
		}
		return 0
	})
	for v := 0; v < 6; v++ {
		want := rd.At(pdb.TupleID(v), 1) + rd.At(pdb.TupleID(v), 2)
		if math.Abs(got[v]-want) > 1e-9 {
			t.Fatalf("v=%d: %v vs %v", v, got[v], want)
		}
	}
}

func TestPRFeOnNetworkMatchesCoreForIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 10)
	net, err := FromIndependent(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PRFe(net, complex(0.8, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := core.PRFe(d, complex(0.8, 0))
	for i := range got {
		if math.Abs(real(got[i])-real(want[i])) > 1e-9 {
			t.Fatalf("i=%d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPRFeChainAgreesWithNetworkPRFe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randChain(rng, 8)
	direct := PRFeChain(c, complex(0.9, 0))
	net, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	generic, err := PRFe(net, complex(0.9, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(real(direct[i])-real(generic[i])) > 1e-9 {
			t.Fatalf("i=%d: %v vs %v", i, direct[i], generic[i])
		}
	}
}

func TestVariableMarginalOnAbsentVariableIsZero(t *testing.T) {
	// Degenerate probe of the lookup path: marginal of a valid variable in
	// a one-variable network.
	net, err := NewNetwork([]float64{1}, []Factor{{Vars: []int{0}, Table: []float64{0.3, 0.7}}})
	if err != nil {
		t.Fatal(err)
	}
	jt, err := BuildJunctionTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if got := jt.VariableMarginal(0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("marginal %v, want 0.7", got)
	}
	if jt.NumCliques() != 1 {
		t.Fatalf("cliques %d", jt.NumCliques())
	}
}

// Expected ranks on Markov networks match brute-force enumeration.
func TestQuickNetworkExpectedRanksMatchEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randNetwork(rng, 2+rng.Intn(6))
		jt, err := BuildJunctionTree(net)
		if err != nil {
			return false
		}
		got := jt.ExpectedRanks()
		worlds, err := net.EnumerateWorlds()
		if err != nil {
			return false
		}
		want := make([]float64, net.Len())
		for _, w := range worlds {
			for id := 0; id < net.Len(); id++ {
				r := w.Rank(pdb.TupleID(id))
				if r == 0 {
					r = len(w.Present)
				}
				want[id] += w.Prob * float64(r)
			}
		}
		for id := range want {
			if math.Abs(got[id]-want[id]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Cross-model validation: an x-tuple database encoded as a Markov network
// (one factor per exclusion group) must produce exactly the same rank
// distribution as the and/xor tree implementation.
func TestQuickNetworkMatchesAndXorTreeOnXTuples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nGroups := 1 + rng.Intn(4)
		var groups [][]andxor.Alternative
		var scores []float64
		var factors []Factor
		varBase := 0
		for g := 0; g < nGroups; g++ {
			size := 1 + rng.Intn(3)
			alts := make([]andxor.Alternative, size)
			rem := rng.Float64()
			vars := make([]int, size)
			for i := range alts {
				p := rem / float64(size)
				alts[i] = andxor.Alternative{Score: rng.Float64() * 100, Prob: p}
				scores = append(scores, alts[i].Score)
				vars[i] = varBase + i
			}
			groups = append(groups, alts)
			// Exclusion factor: weight 1−Σp for the empty assignment, p_i
			// for exactly alternative i present, 0 otherwise.
			tbl := make([]float64, 1<<size)
			var sum float64
			for i, a := range alts {
				tbl[1<<i] = a.Prob
				sum += a.Prob
			}
			tbl[0] = 1 - sum
			factors = append(factors, Factor{Vars: vars, Table: tbl})
			varBase += size
		}
		tree, err := andxor.XTuples(groups)
		if err != nil {
			return false
		}
		net, err := NewNetwork(scores, factors)
		if err != nil {
			return false
		}
		treeRD := andxor.RankDistribution(tree)
		netRD, err := RankDistribution(net)
		if err != nil {
			return false
		}
		n := len(scores)
		for id := 0; id < n; id++ {
			for j := 1; j <= n; j++ {
				if math.Abs(treeRD.At(pdb.TupleID(id), j)-netRD.At(pdb.TupleID(id), j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
