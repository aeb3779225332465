package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pdb"
)

// example1 is Example 1 of the paper: three independent tuples already in
// score order with probabilities 0.5, 0.6, 0.4.
func example1() *pdb.Dataset {
	return pdb.MustDataset([]float64{30, 20, 10}, []float64{0.5, 0.6, 0.4})
}

func TestExample1RankDistribution(t *testing.T) {
	rd := RankDistribution(example1())
	// F³(x) = (.5+.5x)(.4+.6x)(.4x) = .08x + .2x² + .12x³.
	want := []float64{0.08, 0.2, 0.12}
	for j, w := range want {
		if got := rd.At(2, j+1); math.Abs(got-w) > 1e-12 {
			t.Fatalf("Pr(r(t3)=%d) = %v, want %v", j+1, got, w)
		}
	}
}

func TestExample5PRFe(t *testing.T) {
	vals := PRFe(example1(), complex(0.6, 0))
	// Υ(t3) = F³(0.6) = (.5+.5·.6)(.4+.6·.6)(.4·.6) = .14592.
	if got := real(vals[2]); math.Abs(got-0.14592) > 1e-12 {
		t.Fatalf("Υ(t3) = %v, want 0.14592", got)
	}
	if imag(vals[2]) != 0 {
		t.Fatalf("real α should give real Υ, got %v", vals[2])
	}
}

func randDataset(rng *rand.Rand, n int) *pdb.Dataset {
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64() * 100
		probs[i] = rng.Float64()
	}
	return pdb.MustDataset(scores, probs)
}

// Property: Algorithm 1 matches brute-force possible-world enumeration.
func TestQuickRankDistributionMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		d := randDataset(rng, n)
		got := RankDistribution(d)
		worlds, err := pdb.EnumerateWorlds(d)
		if err != nil {
			return false
		}
		want := pdb.RankDistributionFromWorlds(worlds, n)
		for id := 0; id < n; id++ {
			for j := 1; j <= n; j++ {
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

// Property: Σ_j Pr(r(t)=j) = Pr(t).
func TestQuickRankDistributionSumsToPresence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		d := randDataset(rng, n)
		rd := RankDistribution(d)
		for _, tu := range d.Tuples() {
			if math.Abs(rd.PresenceProb(tu.ID)-tu.Prob) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRankDistributionTruncPrefixOfFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := randDataset(rng, 25)
	full := RankDistribution(d)
	trunc := RankDistributionTrunc(d, 5)
	for id := 0; id < 25; id++ {
		for j := 1; j <= 5; j++ {
			if math.Abs(full.At(pdb.TupleID(id), j)-trunc.At(pdb.TupleID(id), j)) > 1e-12 {
				t.Fatalf("trunc mismatch at id=%d j=%d", id, j)
			}
		}
	}
}

// PRF with ω(t,i) = α^i must equal PRFe(α).
func TestPRFMatchesPRFe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 40)
	alpha := 0.7
	viaPRF := PRF(d, func(_ pdb.Tuple, i int) float64 { return math.Pow(alpha, float64(i)) })
	viaPRFe := PRFe(d, complex(alpha, 0))
	for i := range viaPRF {
		if math.Abs(viaPRF[i]-real(viaPRFe[i])) > 1e-9 {
			t.Fatalf("tuple %d: PRF=%v PRFe=%v", i, viaPRF[i], viaPRFe[i])
		}
	}
}

// PRFOmega must agree with generic PRF under the same (rank-only) weights.
func TestPRFOmegaMatchesPRF(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 30)
	w := make([]float64, 7)
	for i := range w {
		w[i] = rng.Float64()
	}
	got := PRFOmega(d, w)
	want := PRF(d, func(_ pdb.Tuple, i int) float64 {
		if i <= len(w) {
			return w[i-1]
		}
		return 0
	})
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("tuple %d: PRFOmega=%v PRF=%v", i, got[i], want[i])
		}
	}
}

// PT(h) values must equal Σ_{j≤h} Pr(r(t)=j) from enumeration, including
// the h = 0 depth (everywhere zero) and depths past n (saturated).
func TestPThMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 8)
	worlds, err := pdb.EnumerateWorlds(d)
	if err != nil {
		t.Fatal(err)
	}
	rd := pdb.RankDistributionFromWorlds(worlds, 8)
	for _, h := range []int{0, 1, 3, 8, 15} {
		got := PTh(d, h)
		for id := 0; id < 8; id++ {
			var want float64
			for j := 1; j <= h; j++ {
				want += rd.At(pdb.TupleID(id), j)
			}
			if math.Abs(got[id]-want) > 1e-9 {
				t.Fatalf("h=%d id=%d: got %v want %v", h, id, got[id], want)
			}
		}
	}
	full, past := PTh(d, 8), PTh(d, 15)
	for id := range full {
		if past[id] != full[id] {
			t.Fatalf("id=%d: PT(15) = %v but PT(n=8) = %v", id, past[id], full[id])
		}
	}
}

// PRFeLog must induce the same ranking as the direct PRFe product where the
// latter does not underflow.
func TestPRFeLogOrderMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randDataset(rng, 60)
	for _, alpha := range []float64{0.1, 0.5, 0.9, 1.0} {
		direct := AbsParts(PRFe(d, complex(alpha, 0)))
		logs := PRFeLog(d, complex(alpha, 0))
		r1 := pdb.RankByValue(direct)
		r2 := pdb.RankByValue(logs)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("alpha=%v: order differs at %d: %v vs %v", alpha, i, r1, r2)
			}
		}
	}
}

func TestPRFeLogHandlesEdgeProbabilities(t *testing.T) {
	// p=0 tuple must get -Inf; p=1 tuples must not break later ones.
	d := pdb.MustDataset([]float64{40, 30, 20, 10}, []float64{1, 0, 0.5, 0.7})
	logs := PRFeLog(d, complex(0.5, 0))
	if !math.IsInf(logs[1], -1) {
		t.Fatalf("p=0 tuple log value = %v, want -Inf", logs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if math.IsNaN(logs[i]) || math.IsInf(logs[i], 0) {
			t.Fatalf("tuple %d log value = %v", i, logs[i])
		}
	}
	// α=0 with a certain preceding tuple: every later tuple is annihilated.
	logs0 := PRFeLog(d, 0)
	for i := range logs0 {
		if !math.IsInf(logs0[i], -1) {
			t.Fatalf("alpha=0: tuple %d = %v, want -Inf", i, logs0[i])
		}
	}
}

func TestPRFeLogNoUnderflowAtScale(t *testing.T) {
	// 5000 tuples at α=0.3: the direct product underflows to 0 and collapses
	// ties; the log version must stay strictly ordered.
	n := 5000
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = float64(n - i)
		probs[i] = 0.5
	}
	d := pdb.MustDataset(scores, probs)
	logs := PRFeLog(d, complex(0.3, 0))
	distinct := make(map[float64]bool)
	for _, v := range logs {
		if math.IsNaN(v) {
			t.Fatal("NaN log value")
		}
		distinct[v] = true
	}
	if len(distinct) < n {
		t.Fatalf("only %d distinct log values for %d tuples", len(distinct), n)
	}
	direct := AbsParts(PRFe(d, complex(0.3, 0)))
	zeros := 0
	for _, v := range direct {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Skip("direct product unexpectedly did not underflow; log path untested against it")
	}
}

func TestPRFeComboMatchesSeparateSums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randDataset(rng, 25)
	terms := []ExpTerm{
		{U: complex(0.5, 0.25), Alpha: complex(0.8, 0.1)},
		{U: complex(0.5, -0.25), Alpha: complex(0.8, -0.1)},
		{U: complex(0.1, 0), Alpha: complex(0.3, 0)},
	}
	got := PRFeCombo(d, terms)
	want := make([]complex128, d.Len())
	for _, term := range terms {
		vals := PRFe(d, term.Alpha)
		for i := range want {
			want[i] += term.U * vals[i]
		}
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("combo mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Conjugate-closed terms ⇒ (near-)real combination for the conjugate
	// pair part; the third real term keeps everything real too.
	for i, v := range got {
		if math.Abs(imag(v)) > 1e-10 {
			t.Fatalf("tuple %d: imaginary residue %v", i, v)
		}
	}
}

// Theorem 4: along an α sweep, any pair of tuples swaps order at most once.
func TestQuickSingleCrossingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		d := randDataset(rng, n)
		// Avoid zero probabilities for a clean statement.
		ts := make([]pdb.Tuple, n)
		copy(ts, d.Tuples())
		for i := range ts {
			ts[i].Prob = 0.05 + 0.9*ts[i].Prob
		}
		d2, _ := pdb.FromTuples(ts)
		grid := make([]float64, 60)
		for i := range grid {
			grid[i] = float64(i+1) / 60.0
		}
		curves := PRFeCurve(d2, grid)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				sign := func(x float64) int {
					if x > 0 {
						return 1
					}
					if x < 0 {
						return -1
					}
					return 0
				}
				flips := 0
				prev := sign(curves[a][0] - curves[b][0])
				for g := 1; g < len(grid); g++ {
					s := sign(curves[a][g] - curves[b][g])
					if s != 0 && prev != 0 && s != prev {
						flips++
					}
					if s != 0 {
						prev = s
					}
				}
				if flips > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Example 7 of the paper: four tuples whose PRFe ranking morphs from the
// Pr(r=1) order at α→0 to the Pr(t) order at α=1.
func example7() *pdb.Dataset {
	return pdb.MustDataset([]float64{100, 80, 50, 30}, []float64{0.4, 0.6, 0.5, 0.9})
}

func TestExample7Extremes(t *testing.T) {
	d := example7()
	// α→0: order by Pr(r(t)=1) = {t1:.4, t2:.36, t3:.12, t4:.108}.
	r0 := RankPRFe(d, 1e-6)
	want0 := pdb.Ranking{0, 1, 2, 3}
	for i := range want0 {
		if r0[i] != want0[i] {
			t.Fatalf("α→0 ranking = %v, want %v", r0, want0)
		}
	}
	// α=1: order by probability = t4(.9), t2(.6), t3(.5), t1(.4).
	r1 := RankPRFe(d, 1)
	want1 := pdb.Ranking{3, 1, 2, 0}
	for i := range want1 {
		if r1[i] != want1[i] {
			t.Fatalf("α=1 ranking = %v, want %v", r1, want1)
		}
	}
}

func TestCrossingPointExample7(t *testing.T) {
	d := example7()
	// t1 (sorted pos 0) and t4 (sorted pos 3) must cross exactly once: t1
	// wins at α→0 (0.4 > 0.108) and loses at α=1 (0.4 < 0.9).
	beta, ok := CrossingPoint(d, 0, 3)
	if !ok {
		t.Fatal("expected a crossing between t1 and t4")
	}
	if beta <= 0 || beta >= 1 {
		t.Fatalf("crossing at %v, want interior point", beta)
	}
	// Verify by evaluating just below and above β.
	lo := PRFe(d, complex(beta-1e-4, 0))
	hi := PRFe(d, complex(beta+1e-4, 0))
	if !(real(lo[0]) > real(lo[3]) && real(hi[0]) < real(hi[3])) {
		t.Fatalf("crossing point %v does not separate the orders", beta)
	}
	// A dominated pair never crosses: t2 (score 80, p .6) dominates t3
	// (score 50, p .5) in both score and probability.
	if _, ok := CrossingPoint(d, 1, 2); ok {
		t.Fatal("dominating pair should not cross (end of Section 7)")
	}
}

func TestSpectrumSizeGrowsBeyondTwo(t *testing.T) {
	d := example7()
	if got := SpectrumSizeGrid(d, 200); got < 3 {
		t.Fatalf("sampled spectrum size %d, want ≥ 3 distinct rankings", got)
	}
	if exact, grid := SpectrumSize(d), SpectrumSizeGrid(d, 200); exact < grid {
		t.Fatalf("exact spectrum %d smaller than sampled %d", exact, grid)
	}
}

func TestTopKHelper(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5}
	top := TopK(vals, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopK = %v", top)
	}
}

func TestRankPositionProbabilitiesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randDataset(rng, 10)
	m := RankPositionProbabilities(d, 4)
	if len(m) != 10 {
		t.Fatalf("rows %d", len(m))
	}
	for id, row := range m {
		if len(row) != 4 {
			t.Fatalf("row %d has %d cols", id, len(row))
		}
	}
}

func TestEmptyDatasetIsHarmless(t *testing.T) {
	d := pdb.MustDataset(nil, nil)
	if got := PRF(d, func(pdb.Tuple, int) float64 { return 1 }); len(got) != 0 {
		t.Fatalf("PRF on empty = %v", got)
	}
	if got := PRFe(d, complex(0.5, 0)); len(got) != 0 {
		t.Fatalf("PRFe on empty = %v", got)
	}
	if got := RankDistribution(d); len(got.Dist) != 0 {
		t.Fatalf("RankDistribution on empty = %v", got)
	}
}

func TestTiedScoresDeterministic(t *testing.T) {
	d := pdb.MustDataset([]float64{5, 5, 5}, []float64{0.5, 0.5, 0.5})
	r1 := RankPRFe(d, 0.7)
	r2 := RankPRFe(d, 0.7)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("tied scores produced nondeterministic ranking")
		}
	}
}

// PRFl must equal the generic PRF with ω(i) = −i.
func TestPRFlMatchesGenericPRF(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randDataset(rng, 40)
	got := PRFl(d)
	want := PRF(d, func(_ pdb.Tuple, i int) float64 { return -float64(i) })
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("tuple %d: PRFl=%v generic=%v", i, got[i], want[i])
		}
	}
}

// The Section 3.3 decomposition must reconstruct the expected rank exactly.
func TestExpectedRankDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := randDataset(rng, 8)
	er1, er2 := ExpectedRankDecomposition(d)
	worlds, err := pdb.EnumerateWorlds(d)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 8)
	for _, w := range worlds {
		for id := 0; id < 8; id++ {
			r := w.Rank(pdb.TupleID(id))
			if r == 0 {
				r = len(w.Present)
			}
			want[id] += w.Prob * float64(r)
		}
	}
	for id := range want {
		if math.Abs(er1[id]+er2[id]-want[id]) > 1e-9 {
			t.Fatalf("id=%d: er1+er2=%v want %v", id, er1[id]+er2[id], want[id])
		}
	}
}
