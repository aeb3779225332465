package core

import (
	"fmt"
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

// canonicalOrder sorts scores on key's radix keys through scratch,
// checking the scores it returns alongside the order.
func canonicalOrder(o *OrderScratch, scores []float64, key func(float64) uint64) ([]uint32, error) {
	keys := o.Keys(len(scores))
	for i, s := range scores {
		keys[i] = key(s)
	}
	order, sorted, err := o.CanonicalOrder(func(dst []float64, ids []uint32) {
		for j, id := range ids {
			dst[j] = scores[id]
		}
	})
	for j, id := range order {
		if math.Float64bits(sorted[j]) != math.Float64bits(scores[id]) {
			return nil, fmt.Errorf("position %d: score %v, tuple %d has %v", j, sorted[j], id, scores[id])
		}
	}
	return order, err
}

// comparatorOrder is the stable (score desc, ID asc) order CanonicalOrder
// replaced, by comparator sort.
func comparatorOrder(scores []float64) []pdb.TupleID {
	want := make([]pdb.TupleID, len(scores))
	for i := range want {
		want[i] = pdb.TupleID(i)
	}
	slices.SortFunc(want, func(a, b pdb.TupleID) int { return canonicalCmp(scores[a], a, scores[b], b) })
	return want
}

// CanonicalOrder must be exactly the comparator sort it replaced, the
// stable (score desc, ID asc) order with −0 tying +0: on ScoreKey's float
// keys, and on narrow integer keys of every width, whose digits split
// into fewer passes. One scratch serves every sort, growing and shrinking.
func TestCanonicalOrderMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var o OrderScratch
	check := func(what string, scores []float64, key func(float64) uint64) {
		t.Helper()
		got, err := canonicalOrder(&o, scores, key)
		if err != nil {
			t.Fatalf("%s, n=%d: %v", what, len(scores), err)
		}
		for j, id := range comparatorOrder(scores) {
			if pdb.TupleID(got[j]) != id {
				t.Fatalf("%s, n=%d: position %d holds %d, comparator sort has %d", what, len(scores), j, got[j], id)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 17, 256, 1000, 5000} {
		check("float keys", orderScores(rng, n), ScoreKey)
	}
	for _, width := range []int{1, 2, 11, 12, 23, 33, 34, 45, 52} {
		// Integer scores below 2^52 are exact, so top − s is an exact key
		// of at most width bits.
		top := float64(uint64(1)<<width - 1)
		for _, n := range []int{2, 300, 5000} {
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(rng.Int63n(int64(top) + 1))
				if rng.Intn(3) == 0 {
					scores[i] = scores[rng.Intn(i+1)] // ties
				}
			}
			check(fmt.Sprintf("%d-bit keys", width), scores, func(s float64) uint64 { return uint64(top - s) })
		}
	}
	var empty OrderScratch
	empty.Keys(0)
	if order, scores, err := empty.CanonicalOrder(nil); err != nil || len(order) != 0 || len(scores) != 0 {
		t.Fatalf("empty input: %v, %v, %v", order, scores, err)
	}
	if _, err := canonicalOrder(&o, []float64{1, math.NaN()}, ScoreKey); err != ErrNotSorted {
		t.Fatalf("NaN score: %v, want ErrNotSorted", err)
	}
}

// Keys that do not order like the scores must fail the check, never
// come back as an order: here they ascend with the score, and then they
// tie two different scores.
func TestCanonicalOrderRejectsWrongKeys(t *testing.T) {
	var o OrderScratch
	scores := []float64{1, 3, 2}
	for _, key := range []func(float64) uint64{
		func(s float64) uint64 { return uint64(s) },
		func(s float64) uint64 { return uint64(4-s) / 2 },
	} {
		if order, err := canonicalOrder(&o, scores, key); err != ErrNotSorted {
			t.Fatalf("order %v, %v; want ErrNotSorted", order, err)
		}
	}
}

// Equal keys make a radix pass the identity, and all-zero keys make no
// pass at all; a relation whose scores all tie must come out in input
// order.
func TestCanonicalOrderAllTied(t *testing.T) {
	scores := make([]float64, 300)
	for i := range scores {
		if i%2 == 0 {
			scores[i] = math.Copysign(0, -1)
		}
	}
	var o OrderScratch
	for _, key := range []func(float64) uint64{ScoreKey, func(float64) uint64 { return 0 }} {
		order, err := canonicalOrder(&o, scores, key)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range order {
			if int(id) != j {
				t.Fatalf("position %d holds %d", j, id)
			}
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
		v := Prepare(pdb.MustDataset(scores, probs))
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

// BenchmarkCanonicalOrder orders 10⁵ three-decimal exponential scores,
// the shape of a served table (many ties), on ScoreKey's float keys and on
// the scaled-decimal keys an import of the same values uses.
func BenchmarkCanonicalOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 100_000)
	for i := range scores {
		scores[i] = math.Round(rng.ExpFloat64()*30_000) / 1e3
	}
	top := slices.Max(scores)
	for _, arm := range []struct {
		name string
		key  func(float64) uint64
	}{
		{"float", ScoreKey},
		{"decimal", func(s float64) uint64 { return uint64(math.Round((top - s) * 1e3)) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var o OrderScratch
			b.ReportAllocs()
			for b.Loop() {
				if _, err := canonicalOrder(&o, scores, arm.key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
