package pdb

import (
	"math"
	"math/cmplx"
	"slices"
)

// Ranking is an ordered list of tuple IDs, best first. A top-k answer is a
// Ranking of length k; a full ranking has length n.
type Ranking []TupleID

// TopK returns the first k entries (or all of them if the ranking is shorter).
func (r Ranking) TopK(k int) Ranking {
	if k > len(r) {
		k = len(r)
	}
	out := make(Ranking, k)
	copy(out, r[:k])
	return out
}

// Position returns the 0-based position of id in the ranking, or -1.
func (r Ranking) Position(id TupleID) int {
	for i, t := range r {
		if t == id {
			return i
		}
	}
	return -1
}

// Contains reports whether id appears in the ranking.
func (r Ranking) Contains(id TupleID) bool { return r.Position(id) >= 0 }

// RankByValue sorts tuple IDs 0..n-1 by non-increasing value. Ties are broken
// by ID (ascending) so results are deterministic. values is indexed by
// TupleID.
func RankByValue(values []float64) Ranking {
	return RankByValueInto(values, nil)
}

// RankByAbs ranks by non-increasing magnitude |v| — the paper's top-k
// convention for complex PRFe values. Ties break by ID.
func RankByAbs(vals []complex128) Ranking {
	abs := make([]float64, len(vals))
	for i, v := range vals {
		abs[i] = cmplx.Abs(v)
	}
	return RankByValue(abs)
}

// ByValue is the RankByValue order on (value, ID) pairs: non-increasing
// value, NaN after every number, ties broken by ascending ID. It returns a
// negative number when (va, a) ranks before (vb, b), zero only for the
// same pair (IDs are non-negative, so a−b cannot overflow). Every
// value-ordered ranking path — RankByValueInto, core's certified PRFe
// top-k selector and the store's lazy view through it — uses this one
// definition. With unique IDs it is a strict total order, so
// any comparison sort or heap built on it is fully determined. The NaN arm
// keeps it a valid strict weak ordering even for caller-supplied vectors
// containing NaN (the ranking kernels themselves never produce one); it is
// out of line so the common arms inline into sort comparators.
func ByValue(va float64, a TupleID, vb float64, b TupleID) int {
	switch {
	case va > vb:
		return -1
	case vb > va:
		return 1
	case va == vb:
		return int(a - b)
	}
	return byValueNaN(va, a, vb, b)
}

// byValueNaN is ByValue's out-of-line arm for pairs where at least one
// value is NaN: NaN ranks below every number, and two NaNs tie on value.
func byValueNaN(va float64, a TupleID, vb float64, b TupleID) int {
	if an, bn := math.IsNaN(va), math.IsNaN(vb); an != bn {
		if bn {
			return -1
		}
		return 1
	}
	return int(a - b)
}

// RankByValueInto is RankByValue ranking into out, which is reallocated only
// when its capacity is short — the allocation-free form for callers that
// rank many value vectors through one reusable buffer. ByValue is a strict
// total order, so the generic pdqsort needs no stability requirement; it
// avoids the reflection-based swapper of sort.SliceStable entirely, which
// both speeds the sort up and drops its allocations.
func RankByValueInto(values []float64, out Ranking) Ranking {
	if cap(out) < len(values) {
		out = make(Ranking, len(values))
	}
	out = out[:len(values)]
	for i := range out {
		out[i] = TupleID(i)
	}
	slices.SortFunc(out, func(a, b TupleID) int {
		return ByValue(values[a], a, values[b], b)
	})
	return out
}

// RankByValueFor ranks an explicit set of IDs by non-increasing value taken
// from the map, ties broken by ID (the ByValue order).
func RankByValueFor(ids []TupleID, value map[TupleID]float64) Ranking {
	out := make(Ranking, len(ids))
	copy(out, ids)
	slices.SortStableFunc(out, func(a, b TupleID) int {
		return ByValue(value[a], a, value[b], b)
	})
	return out
}
