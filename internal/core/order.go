package core

// The canonical order as a radix sort. When tuple IDs are input positions
// (every CSV import), the prepared order is exactly the stable sort of the
// inputs by descending score: ties keep input order, which is ascending
// ID. A stable LSD radix sort on an order-preserving integer key of the
// score therefore builds it in a few linear passes, with no comparator
// calls. The caller supplies the keys: ScoreKey always serves, and a
// narrower exact key (the store's scaled decimals) needs fewer passes.

import (
	"math"
	"math/bits"

	"repro/internal/pdb"
)

// The radix digits: at most 11 bits, so at most six passes over a 64-bit
// key.
const (
	maxDigitBits = 11
	maxPasses    = (64 + maxDigitBits - 1) / maxDigitBits
)

// ScoreKey maps a finite score to a radix key for OrderScratch: ascending
// keys are descending scores, and −0 shares +0's key, so keys tie exactly
// when canonicalCmp's scores do (exact.Same).
func ScoreKey(s float64) uint64 {
	b := math.Float64bits(s)
	if s == 0 {
		b = 0
	}
	// Flipping every bit of a negative and only the sign bit of a
	// non-negative makes the bits ascend with the value; the final
	// complement turns that into descending order.
	return ^(b ^ (uint64(int64(b)>>63) | 1<<63))
}

// OrderScratch is the working memory of CanonicalOrder, reusable from one
// sort to the next: 32 bytes per tuple, held until the next sort.
type OrderScratch struct {
	n      int
	keys   []uint64 // the keys, then as many again for the scatter
	perm   []uint32 // likewise for the permutation
	scores []float64
}

// Keys returns room for the keys of n tuples, to be filled before
// CanonicalOrder: key i belongs to the tuple with ID i, and must order
// like ScoreKey(score i) does — ascending for descending scores, equal
// exactly when the scores are.
func (o *OrderScratch) Keys(n int) []uint64 {
	if cap(o.keys) < 2*n {
		o.keys, o.perm, o.scores = make([]uint64, 2*n), make([]uint32, 2*n), make([]float64, n)
	}
	o.n, o.keys, o.perm, o.scores = n, o.keys[:2*n], o.perm[:2*n], o.scores[:n]
	return o.keys[:n]
}

// CanonicalOrder returns the prepared-order permutation of the tuples
// whose keys were last filled in through Keys, with their scores in that
// order: order[j] is the ID at sorted position j and scores[j] its score.
// Both live in the scratch, valid until its next use. gather(dst, ids)
// must set each dst[j] to the finite score of tuple ids[j]; it is called
// once, and the scores it gathers are checked pair by pair against
// canonicalCmp — the order definition CheckSorted verifies — so a wrong
// permutation, from keys that do not order like the scores, is
// ErrNotSorted, never returned.
//
// The sort is a stable LSD radix sort in ⌈w/11⌉ scatter passes of
// ⌈w/passes⌉-bit digits, w the bit length of the largest key; a pass
// whose digit is the same for every key is skipped. Validating the
// scores is the caller's job; a NaN among two or more fails the check.
func (o *OrderScratch) CanonicalOrder(gather func(dst []float64, ids []uint32)) (order []uint32, scores []float64, err error) {
	n := o.n
	if n == 0 {
		return o.perm[:0], o.scores[:0], nil
	}
	if uint64(n) > math.MaxUint32+1 {
		return nil, nil, ErrBadArrays
	}
	k, kOut := o.keys[:n], o.keys[n:]
	p, pOut := o.perm[:n], o.perm[n:]
	var width uint64
	for i, key := range k {
		width |= key
		p[i] = uint32(i)
	}
	w := bits.Len64(width)
	passes := (w + maxDigitBits - 1) / maxDigitBits
	digit := 0
	if passes > 0 {
		digit = (w + passes - 1) / passes
	}
	mask := uint64(1)<<digit - 1
	var counts [maxPasses][1 << maxDigitBits]int
	for _, key := range k {
		for d := range passes {
			counts[d][key>>(digit*d)&mask]++
		}
	}
	for d := range passes {
		c := counts[d][:mask+1]
		shift := digit * d
		if c[k[0]>>shift&mask] == n {
			continue // every key has this digit: the pass would be the identity
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for i, key := range k {
			b := key >> shift & mask
			kOut[c[b]], pOut[c[b]] = key, p[i]
			c[b]++
		}
		k, kOut = kOut, k
		p, pOut = pOut, p
	}
	scores = o.scores
	gather(scores, p)
	for j := 1; j < n; j++ {
		if canonicalCmp(scores[j-1], pdb.TupleID(p[j-1]), scores[j], pdb.TupleID(p[j])) >= 0 {
			return nil, nil, ErrNotSorted
		}
	}
	return p, scores, nil
}
