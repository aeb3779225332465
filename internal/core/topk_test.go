package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pdb"
)

// fuzzAlpha maps a class selector and a raw float onto one of the α
// regimes the selector must handle: 0, a hair above 0, the early-stop
// interval (0, 1), exactly 1, above 1 and below 0.
func fuzzAlpha(class uint8, raw float64) float64 {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		raw = 0.5
	}
	frac := math.Abs(raw) - math.Floor(math.Abs(raw)) // [0, 1)
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return 1e-9
	case 2:
		return math.Max(frac, 1e-6)
	case 3:
		return 1
	case 4:
		return 1 + 3*frac + 1e-9
	default:
		return -(3*frac + 1e-9)
	}
}

// fuzzDataset draws n probabilities from a dyadic palette (0, 1/4, 1/2, 3/4,
// 1 — every factor 1 − p + p·α stays exact at α = 1, so many values tie
// exactly) mixed with arbitrary draws, and integer scores that tie.
func fuzzDataset(seed int64, n int) *pdb.Dataset {
	rng := rand.New(rand.NewSource(seed))
	palette := []float64{0, 0.25, 0.5, 0.75, 1}
	scores := make([]float64, n)
	probs := make([]float64, n)
	for i := range probs {
		scores[i] = float64(rng.Intn(max(n/3, 1)))
		if rng.Intn(3) == 0 {
			probs[i] = rng.Float64()
		} else {
			probs[i] = palette[rng.Intn(len(palette))]
		}
	}
	return pdb.MustDataset(scores, probs)
}

// FuzzPRFeTopK pins the certified selector bit-for-bit to the full sort:
// for every α regime, probabilities 0 and 1, tied values and k ∈ {0, 1,
// mid, n, n+5}, the selector fed in arbitrary spans — and the batch
// entry points built on it — must return exactly RankPRFe(α).TopK(k).
func FuzzPRFeTopK(f *testing.F) {
	for class := uint8(0); class < 6; class++ {
		for kSel := uint8(0); kSel < 5; kSel++ {
			f.Add(int64(class)*31+int64(kSel), uint8(17), class, 0.37, kSel, uint8(5))
		}
	}
	f.Add(int64(99), uint8(200), uint8(2), 0.999, uint8(1), uint8(64))
	f.Add(int64(7), uint8(1), uint8(3), 0.0, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, class uint8, raw float64, kSel, span uint8) {
		n := 1 + int(nRaw)
		v := Prepare(fuzzDataset(seed, n))
		alpha := fuzzAlpha(class, raw)
		k := []int{0, 1, n / 2, n, n + 5}[kSel%5]
		want := v.RankPRFe(alpha).TopK(k)

		s := NewPRFeTopK(alpha, k)
		step := 1 + int(span)
		for lo := 0; lo < n && !s.Feed(v.IDs()[lo:min(lo+step, n)], v.Probs()[lo:min(lo+step, n)]); lo += step {
		}
		if got := s.Ranking(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d α=%v k=%d span=%d: selector %v, want %v", n, alpha, k, step, got, want)
		}
		got, err := v.QueryTopKPRFeBatch(context.Background(), []float64{alpha}, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("n=%d α=%v k=%d: QueryTopKPRFeBatch %v, want %v", n, alpha, k, got[0], want)
		}
		if alpha > 0 && alpha < 1 {
			// A monotone grid through α: the certified-prefix arm or its
			// kinetic-sweep fallback, both exact.
			grid := []float64{alpha / 2, alpha, (1 + alpha) / 2}
			got, err := v.QueryTopKPRFeBatch(context.Background(), grid, k)
			if err != nil {
				t.Fatal(err)
			}
			for a, ga := range grid {
				if w := v.RankPRFe(ga).TopK(k); !reflect.DeepEqual(got[a], w) {
					t.Fatalf("n=%d grid α=%v k=%d: %v, want %v", n, ga, k, got[a], w)
				}
			}
		}
	})
}

// TestPRFeTopKStopsEarly is the selector's cost claim: on a seeded 10⁵
// table it certifies every α ≤ 0.999 and k ≤ 50 within 1024 positions,
// with the exact full-sort answer.
func TestPRFeTopKStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-tuple fixture")
	}
	v := Prepare(datagen.SynIND(100_000, 7))
	for _, alpha := range []float64{0.05, 0.3, 0.6, 0.9, 0.95, 0.99, 0.999} {
		full := v.RankPRFe(alpha)
		for _, k := range []int{1, 10, 50} {
			s := NewPRFeTopK(alpha, k)
			if !s.Feed(v.IDs(), v.Probs()) {
				t.Fatalf("α=%v k=%d: never certified", alpha, k)
			}
			if s.Seen() > 1024 {
				t.Errorf("α=%v k=%d: certified after %d positions, want ≤ 1024", alpha, k, s.Seen())
			}
			if got, want := s.Ranking(), full.TopK(k); !reflect.DeepEqual(got, want) {
				t.Errorf("α=%v k=%d: %v, want %v", alpha, k, got, want)
			}
		}
	}
}

// TestPRFeTopKTieAtBound pins the strictness of the certificate. At
// α = 0.75, p = 0.8 the factor 1 − p + p·α rounds to exactly 0.8, so a
// certain tuple right after the p = 0.8 one ties its value — and sits
// exactly on the bound left after the first one is consumed. A
// non-strict certificate would stop there and keep the larger ID; the
// ByValue order wants the smaller ID that only the next position shows.
// Leading p = 0 tuples (value −Inf, factor 1) move the tie onto a chunk
// boundary so whole-relation feeds are checked at that point too.
func TestPRFeTopKTieAtBound(t *testing.T) {
	const alpha = 0.75
	for _, lead := range []int{0, selectChunk - 1} {
		n := lead + 2
		scores := make([]float64, n)
		probs := make([]float64, n)
		for i := range scores {
			scores[i] = float64(n - i) // position i holds ID i
		}
		// Position lead holds ID lead+1 with p = 0.8; position lead+1
		// holds the smaller ID lead with p = 1.
		scores[lead], scores[lead+1] = scores[lead+1], scores[lead]
		probs[lead], probs[lead+1] = 1, 0.8
		v := Prepare(pdb.MustDataset(scores, probs))
		want := v.RankPRFe(alpha).TopK(1)
		if want[0] != pdb.TupleID(lead) || v.ID(lead+1) != want[0] {
			t.Fatalf("lead=%d: fixture lost its tie: top-1 %v", lead, want)
		}
		for _, step := range []int{1, n} {
			s := NewPRFeTopK(alpha, 1)
			for lo := 0; lo < n && !s.Feed(v.IDs()[lo:min(lo+step, n)], v.Probs()[lo:min(lo+step, n)]); lo += step {
			}
			if got := s.Ranking(); !reflect.DeepEqual(got, want) {
				t.Errorf("lead=%d step=%d: %v, want %v", lead, step, got, want)
			}
		}
	}
}
