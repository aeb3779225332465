package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// The conformance suite: every backend × metric × output combination of
// the unified engine runs against the brute-force possible-worlds oracle
// on a seeded instance zoo — random draws plus the adversarial shapes
// (duplicate scores, ties, zero/one probabilities, degenerate single-tuple
// and empty-ish worlds) that historically break ranking kernels.

// conformanceQueries is the full metric × output matrix for an n-tuple
// instance. Every query is valid for every backend.
func conformanceQueries(n int) []engine.Query {
	k := n/2 + 1
	omega := func(t pdb.Tuple, rank int) float64 { return t.Score / float64(rank) }
	terms := []core.ExpTerm{
		{U: complex(0.75, 0), Alpha: complex(0.9, 0)},
		{U: complex(-0.25, 0), Alpha: complex(0.4, 0)},
	}
	var qs []engine.Query
	add := func(m engine.Metric, outs []engine.Output, mut func(*engine.Query)) {
		for _, out := range outs {
			q := engine.Query{Metric: m, Output: out, K: k}
			if mut != nil {
				mut(&q)
			}
			qs = append(qs, q)
		}
	}
	all := []engine.Output{engine.OutputValues, engine.OutputRanking, engine.OutputTopK}
	add(engine.MetricPRFe, all, func(q *engine.Query) { q.Alpha = 0.85 })
	add(engine.MetricPRFOmega, all, func(q *engine.Query) { q.Weights = []float64{1, 0.5, 0.25} })
	add(engine.MetricPTh, all, func(q *engine.Query) { q.H = (n + 1) / 2 })
	add(engine.MetricPRF, all, func(q *engine.Query) { q.Omega = omega })
	add(engine.MetricERank, all, nil)
	add(engine.MetricPRFeCombo, all, func(q *engine.Query) { q.Terms = terms })
	add(engine.MetricGlobalTopk, all, nil)
	add(engine.MetricExpectedRank, all, nil)
	add(engine.MetricMedianRank, all, nil)
	// Batch path: a PRFe α grid certifies RankBatch per grid point.
	qs = append(qs,
		engine.Query{Metric: engine.MetricPRFe, Output: engine.OutputValues, Alphas: []float64{0.2, 0.55, 0.9}},
		engine.Query{Metric: engine.MetricPRFe, Output: engine.OutputTopK, Alphas: []float64{0.3, 0.8}, K: k},
	)
	return qs
}

// certifyAll sweeps the full query matrix for one backend against one
// oracle.
func certifyAll(t *testing.T, name string, o *Oracle, r engine.Ranker) {
	t.Helper()
	ctx := context.Background()
	if mass := o.TotalMass(); math.Abs(mass-1) > 1e-9 {
		t.Fatalf("%s: oracle world mass %v, want 1", name, mass)
	}
	for _, q := range conformanceQueries(o.Len()) {
		if err := o.Certify(ctx, r, q); err != nil {
			t.Errorf("%s: %v/%v: %v", name, q.Metric, q.Output, err)
		}
	}
}

// independentInstances is the seeded zoo of tuple-independent datasets.
func independentInstances(t *testing.T) map[string]*pdb.Dataset {
	t.Helper()
	build := pdb.MustDataset
	out := map[string]*pdb.Dataset{
		"single":       build([]float64{5}, []float64{0.7}),
		"single-sure":  build([]float64{5}, []float64{1}),
		"single-never": build([]float64{5}, []float64{0}),
		// Dyadic probabilities keep every cumulative sum exact in binary, so
		// the Median-Rank 0.5 threshold is hit exactly, not approached.
		"dyadic-ties": build(
			[]float64{9, 9, 9, 4, 4, 1},
			[]float64{1, 0.5, 0.5, 0.25, 0.75, 0}),
		"zero-one": build(
			[]float64{8, 7, 6, 5, 4},
			[]float64{1, 0, 1, 0, 1}),
		"all-sure":  build([]float64{3, 2, 1}, []float64{1, 1, 1}),
		"all-never": build([]float64{3, 2, 1}, []float64{0, 0, 0}),
	}
	for _, n := range []int{4, 8, 12} {
		r := rand.New(rand.NewSource(int64(1000 + n)))
		scores := make([]float64, n)
		probs := make([]float64, n)
		for i := range scores {
			scores[i] = math.Round(r.Float64()*100) / 4 // forces some ties
			probs[i] = r.Float64()
		}
		out[fmt.Sprintf("random-%d", n)] = build(scores, probs)
	}
	return out
}

func TestConformanceIndependent(t *testing.T) {
	for name, d := range independentInstances(t) {
		t.Run(name, func(t *testing.T) {
			o, err := FromDataset(d)
			if err != nil {
				t.Fatal(err)
			}
			certifyAll(t, "core.Prepared", o, core.Prepare(d))
			tr, err := andxor.Independent(d)
			if err != nil {
				t.Fatal(err)
			}
			certifyAll(t, "andxor(independent)", o, andxor.PrepareTree(tr))
		})
	}
}

// xrelationInstances is the seeded zoo of x-relations (mutually exclusive
// alternative groups), built as height-2 and/xor trees.
func xrelationInstances(t *testing.T) map[string][][]andxor.Alternative {
	t.Helper()
	out := map[string][][]andxor.Alternative{
		"two-groups": {
			{{Score: 10, Prob: 0.5}, {Score: 3, Prob: 0.5}},
			{{Score: 7, Prob: 0.25}, {Score: 5, Prob: 0.25}},
		},
		"forced-choice": { // each group's mass is exactly 1: no empty option
			{{Score: 9, Prob: 1}},
			{{Score: 8, Prob: 0.5}, {Score: 2, Prob: 0.5}},
		},
		"duplicate-scores": {
			{{Score: 6, Prob: 0.5}, {Score: 6, Prob: 0.25}},
			{{Score: 6, Prob: 0.75}},
			{{Score: 1, Prob: 0.125}},
		},
		"zero-prob-alternative": {
			{{Score: 10, Prob: 0}, {Score: 4, Prob: 0.5}},
			{{Score: 7, Prob: 1}},
		},
	}
	for _, spec := range []struct{ groups, maxAlts int }{{3, 2}, {5, 3}} {
		r := rand.New(rand.NewSource(int64(31*spec.groups + spec.maxAlts)))
		var groups [][]andxor.Alternative
		for g := 0; g < spec.groups; g++ {
			alts := make([]andxor.Alternative, 1+r.Intn(spec.maxAlts))
			budget := 1.0
			for i := range alts {
				p := r.Float64() * budget / float64(len(alts))
				alts[i] = andxor.Alternative{Score: r.Float64() * 50, Prob: p}
				budget -= p
			}
			groups = append(groups, alts)
		}
		out[fmt.Sprintf("random-%dx%d", spec.groups, spec.maxAlts)] = groups
	}
	return out
}

func TestConformanceXRelation(t *testing.T) {
	for name, groups := range xrelationInstances(t) {
		t.Run(name, func(t *testing.T) {
			tr, err := andxor.XTuples(groups)
			if err != nil {
				t.Fatal(err)
			}
			o, err := FromTree(tr)
			if err != nil {
				t.Fatal(err)
			}
			certifyAll(t, "andxor(xtuples)", o, andxor.PrepareTree(tr))
		})
	}
}

// makeChain constructs a calibrated chain from an initial marginal and
// per-step transition rows: pair[j] = marg_j ⊗ cond_j, with the next
// marginal read back off the joint so calibration holds exactly.
func makeChain(scores []float64, m0 float64, cond [][2]float64) (*junction.Chain, error) {
	n := len(scores)
	marg := [2]float64{1 - m0, m0}
	pair := make([][2][2]float64, n-1)
	for j := 0; j < n-1; j++ {
		for a := 0; a < 2; a++ {
			p1 := cond[j][a] // Pr(Y_{j+1}=1 | Y_j=a)
			pair[j][a][1] = marg[a] * p1
			pair[j][a][0] = marg[a] * (1 - p1)
		}
		marg = [2]float64{pair[j][0][0] + pair[j][1][0], pair[j][0][1] + pair[j][1][1]}
	}
	return junction.NewChain(scores, pair)
}

// buildChain is makeChain for table-driven tests: it fails the test on a
// construction error.
func buildChain(t *testing.T, scores []float64, m0 float64, cond [][2]float64) *junction.Chain {
	t.Helper()
	c, err := makeChain(scores, m0, cond)
	if err != nil {
		t.Fatalf("buildChain: %v", err)
	}
	return c
}

func chainInstances(t *testing.T) map[string]*junction.Chain {
	t.Helper()
	out := map[string]*junction.Chain{
		"pair": buildChain(t, []float64{4, 9}, 0.5, [][2]float64{{0.25, 0.75}}),
		"deterministic": buildChain(t, []float64{5, 3, 8}, 1,
			[][2]float64{{0, 1}, {0, 1}}),
		"absorbing-zero": buildChain(t, []float64{6, 2, 7, 1}, 0.5,
			[][2]float64{{0, 0.5}, {0, 1}, {0.5, 0.5}}),
		"tied-scores": buildChain(t, []float64{5, 5, 5, 2}, 0.5,
			[][2]float64{{0.5, 0.5}, {0.25, 0.75}, {0.5, 0.5}}),
	}
	for _, n := range []int{5, 10} {
		r := rand.New(rand.NewSource(int64(7700 + n)))
		scores := make([]float64, n)
		cond := make([][2]float64, n-1)
		for i := range scores {
			scores[i] = math.Round(r.Float64()*80) / 2
		}
		for j := range cond {
			cond[j] = [2]float64{r.Float64(), r.Float64()}
		}
		out[fmt.Sprintf("random-%d", n)] = buildChain(t, scores, r.Float64(), cond)
	}
	return out
}

func TestConformanceChain(t *testing.T) {
	for name, c := range chainInstances(t) {
		t.Run(name, func(t *testing.T) {
			o, err := FromChain(c)
			if err != nil {
				t.Fatal(err)
			}
			certifyAll(t, "junction.PreparedChain", o, junction.PrepareChain(c))
			net, err := c.Network()
			if err != nil {
				t.Fatal(err)
			}
			pn, err := junction.PrepareNetwork(net)
			if err != nil {
				t.Fatal(err)
			}
			certifyAll(t, "junction.PreparedNetwork", o, pn)
		})
	}
}

// TestOracleMetamorphic pins the oracle to itself through identities every
// semantics must satisfy — the metamorphic layer that catches a wrong
// oracle before it certifies wrong backends.
func TestOracleMetamorphic(t *testing.T) {
	for name, d := range independentInstances(t) {
		t.Run(name, func(t *testing.T) {
			o, err := FromDataset(d)
			if err != nil {
				t.Fatal(err)
			}
			n := o.Len()
			presence := o.PresenceProb()

			// Expected-Rank and E-Rank differ by exactly the absence mass.
			er, xr := o.ERank(), o.ExpectedRank()
			for id := 0; id < n; id++ {
				if diff := xr[id] - er[id]; !closeEnough(diff, 1-presence[id]) {
					t.Errorf("tuple %d: ExpectedRank−ERank = %v, want absence mass %v", id, diff, 1-presence[id])
				}
			}
			// Global-Topk at k = n is the presence probability, and PT(h)
			// saturates beyond n.
			gt := o.GlobalTopk(n)
			deep := o.PTh(n + 5)
			for id := 0; id < n; id++ {
				if !closeEnough(gt[id], presence[id]) || !closeEnough(deep[id], presence[id]) {
					t.Errorf("tuple %d: GlobalTopk(n)=%v PTh(n+5)=%v, want presence %v",
						id, gt[id], deep[id], presence[id])
				}
			}
			// PRFω with h ones is PT(h); PRFe at α=1 is presence.
			h := (n + 1) / 2
			ones := make([]float64, h)
			for i := range ones {
				ones[i] = 1
			}
			pw, ph := o.PRFOmega(ones), o.PTh(h)
			one := o.PRFe(1)
			for id := 0; id < n; id++ {
				if !closeEnough(pw[id], ph[id]) {
					t.Errorf("tuple %d: PRFω(1…1)=%v ≠ PT(%d)=%v", id, pw[id], h, ph[id])
				}
				if !closeEnough(real(one[id]), presence[id]) || imag(one[id]) != 0 {
					t.Errorf("tuple %d: PRFe(1)=%v, want presence %v", id, one[id], presence[id])
				}
			}
			// Median-Rank hits the sentinel exactly when presence mass
			// never reaches 1/2.
			med := o.MedianRank()
			for id := 0; id < n; id++ {
				if (presence[id] < 0.5) != (med[id] == pdb.MedianRankSentinel(n)) {
					t.Errorf("tuple %d: median %v vs presence %v (sentinel %v)",
						id, med[id], presence[id], pdb.MedianRankSentinel(n))
				}
			}
			// The rank distribution row masses are the presence probabilities
			// and each world position's column mass is ≤ 1.
			rd := o.RankDistribution()
			for id := 0; id < n; id++ {
				var row float64
				for _, p := range rd.Dist[id] {
					row += p
				}
				if !closeEnough(row, presence[id]) {
					t.Errorf("tuple %d: rank-distribution row mass %v, want %v", id, row, presence[id])
				}
			}
		})
	}
}

// TestOracleGuards pins the enumeration guards: instance sizes beyond
// MaxTuples are refused rather than enumerated.
func TestOracleGuards(t *testing.T) {
	big := make([]float64, MaxTuples+1)
	halves := make([]float64, MaxTuples+1)
	for i := range big {
		big[i], halves[i] = float64(i), 0.5
	}
	d := pdb.MustDataset(big, halves)
	if _, err := FromDataset(d); err == nil {
		t.Fatalf("FromDataset accepted %d tuples", d.Len())
	}
	tr, err := andxor.Independent(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTree(tr); err == nil {
		t.Fatalf("FromTree accepted %d leaves", tr.Len())
	}
	scores := make([]float64, MaxTuples+1)
	cond := make([][2]float64, MaxTuples)
	for i := range scores {
		scores[i] = float64(i)
	}
	for j := range cond {
		cond[j] = [2]float64{0.5, 0.5}
	}
	if _, err := FromChain(buildChain(t, scores, 0.5, cond)); err == nil {
		t.Fatalf("FromChain accepted %d variables", len(scores))
	}
}
