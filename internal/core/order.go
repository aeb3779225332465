package core

// The canonical order as a radix sort. When tuple IDs are input positions
// (every CSV import, PrepareArrays), the prepared order is exactly the
// stable sort of the inputs by descending score: ties keep input order,
// which is ascending ID. A stable LSD radix sort on an order-preserving
// integer key of the score therefore builds it in a fixed number of linear
// passes, with no comparator calls.

import (
	"math"

	"repro/internal/pdb"
)

// The radix digits: 11 bits, six passes over a 64-bit key.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = (64 + radixBits - 1) / radixBits
)

// scoreKey maps a finite score to its radix key: ascending keys are
// descending scores, and −0 shares +0's key, so keys tie exactly when
// canonicalCmp's scores do (exact.Same).
func scoreKey(s float64) uint64 {
	b := math.Float64bits(s)
	if s == 0 {
		b = 0
	}
	// Flipping every bit of a negative and only the sign bit of a
	// non-negative makes the bits ascend with the value; the final
	// complement turns that into descending order.
	return ^(b ^ (uint64(int64(b)>>63) | 1<<63))
}

// CanonicalOrder returns the prepared-order permutation of n tuples whose
// IDs are their input positions 0..n−1 and whose finite scores score(i)
// returns: order[j] is the input position at sorted position j. score is
// called once per tuple, in input order, and then once per position while
// the result is checked against canonicalCmp — the order definition
// CheckSorted verifies — so a wrong permutation is ErrNotSorted, never
// returned.
//
// The sort is a stable LSD radix sort of scoreKey in radixBits-bit
// digits: radixPasses scatter passes at most (a pass whose digit is the
// same for every key is skipped), 24n bytes of scratch. Validating the
// scores is the caller's job; a NaN among two or more fails the check.
func CanonicalOrder(n int, score func(i int) float64) ([]uint32, error) {
	if n == 0 {
		return []uint32{}, nil
	}
	if uint64(n) > math.MaxUint32+1 {
		return nil, ErrBadArrays
	}
	keys := make([]uint64, 2*n)
	perm := make([]uint32, 2*n)
	k, kOut := keys[:n], keys[n:]
	p, pOut := perm[:n], perm[n:]
	var counts [radixPasses][1 << radixBits]int
	for i := range k {
		key := scoreKey(score(i))
		k[i], p[i] = key, uint32(i)
		for d := range counts {
			counts[d][key>>(radixBits*d)&radixMask]++
		}
	}
	for d := range counts {
		c := &counts[d]
		shift := radixBits * d
		if c[k[0]>>shift&radixMask] == n {
			continue // every key has this digit: the pass would be the identity
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for i, key := range k {
			b := key >> shift & radixMask
			kOut[c[b]], pOut[c[b]] = key, p[i]
			c[b]++
		}
		k, kOut = kOut, k
		p, pOut = pOut, p
	}
	prev := score(int(p[0]))
	for j := 1; j < n; j++ {
		s := score(int(p[j]))
		if canonicalCmp(prev, pdb.TupleID(p[j-1]), s, pdb.TupleID(p[j])) >= 0 {
			return nil, ErrNotSorted
		}
		prev = s
	}
	return p, nil
}
