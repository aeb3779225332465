package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/pdb"
)

// orderScores draws n scores built to stress the radix key: heavy ties
// (three-decimal values from a small range), both zeros, negatives,
// subnormals and the extreme finite values.
func orderScores(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 1e-300, -1e300}
	scores := make([]float64, n)
	for i := range scores {
		switch rng.Intn(4) {
		case 0:
			scores[i] = special[rng.Intn(len(special))]
		case 1:
			scores[i] = float64(rng.Intn(20)-10) / 4
		default:
			scores[i] = math.Round(rng.NormFloat64()*1e6) / 1e3
		}
	}
	return scores
}

// CanonicalOrder must be exactly the comparator sort it replaced: the
// stable (score desc, ID asc) order with −0 tying +0.
func TestCanonicalOrderMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 17, 256, 1000, 5000} {
		scores := orderScores(rng, n)
		got, err := CanonicalOrder(n, func(i int) float64 { return scores[i] })
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := make([]pdb.TupleID, n)
		for i := range want {
			want[i] = pdb.TupleID(i)
		}
		slices.SortFunc(want, func(a, b pdb.TupleID) int { return canonicalCmp(scores[a], a, scores[b], b) })
		for j := range want {
			if pdb.TupleID(got[j]) != want[j] {
				t.Fatalf("n=%d: position %d holds %d, comparator sort has %d", n, j, got[j], want[j])
			}
		}
	}
	if order, err := CanonicalOrder(0, nil); err != nil || len(order) != 0 {
		t.Fatalf("empty input: %v, %v", order, err)
	}
	if _, err := CanonicalOrder(2, func(i int) float64 { return [2]float64{1, math.NaN()}[i] }); err != ErrNotSorted {
		t.Fatalf("NaN score: %v, want ErrNotSorted", err)
	}
}

// Equal keys make a radix pass the identity; a relation whose scores all
// tie must come out in input order.
func TestCanonicalOrderAllTied(t *testing.T) {
	order, err := CanonicalOrder(300, func(i int) float64 {
		if i%2 == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range order {
		if int(id) != j {
			t.Fatalf("position %d holds %d", j, id)
		}
	}
}

// Median-Rank at p = 1/2: the fold's rounded mass can fall just short of
// 1/2, and the answer must then be the exact one (one past the count of
// higher-scored tuples that can be present), never the sentinel — the
// oracle's rule is "sentinel iff presence < 1/2". The inputs mirror a
// served 2000-tuple table: exponential three-decimal scores and
// four-decimal probabilities, with p = 0.5 planted throughout.
func TestMedianRankAtOneHalf(t *testing.T) {
	const n = 2000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scores, probs := make([]float64, n), make([]float64, n)
		for i := range scores {
			scores[i], _ = strconv.ParseFloat(strconv.FormatFloat(rng.ExpFloat64()*30, 'f', 3, 64), 64)
			probs[i], _ = strconv.ParseFloat(strconv.FormatFloat(0.01+0.98*rng.Float64(), 'f', 4, 64), 64)
			if rng.Intn(8) == 0 {
				probs[i] = 0.5
			}
		}
		v, err := PrepareArrays(scores, probs)
		if err != nil {
			t.Fatal(err)
		}
		med := v.MedianRank()
		possible := 0
		for i := 0; i < n; i++ {
			p, m := v.Prob(i), med[v.ID(i)]
			if (p < 0.5) != (m == pdb.MedianRankSentinel(n)) {
				t.Fatalf("seed %d, position %d: p=%v but median %v (sentinel %v)",
					seed, i, p, m, pdb.MedianRankSentinel(n))
			}
			if p >= 0.5 && m > float64(possible+1) {
				t.Fatalf("seed %d, position %d: median %v beyond the largest possible rank %d",
					seed, i, m, possible+1)
			}
			if p > 0 {
				possible++
			}
		}
	}
}

// BenchmarkCanonicalOrder orders 10⁵ three-decimal exponential scores, the
// shape of a served table (many ties).
func BenchmarkCanonicalOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 100_000)
	for i := range scores {
		scores[i] = math.Round(rng.ExpFloat64()*30_000) / 1e3
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CanonicalOrder(len(scores), func(i int) float64 { return scores[i] }); err != nil {
			b.Fatal(err)
		}
	}
}
