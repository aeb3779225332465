package andxor

import (
	"repro/internal/exact"
	"repro/internal/pdb"
)

// This file implements ANDXOR-PRFe-RANK (Section 4.3, Algorithm 3): the
// PRFe value of tuple tᵢ is Υ(tᵢ) = Fⁱ(α,α) − Fⁱ(α,0), and instead of
// re-evaluating the tree per tuple, the two numeric evaluations are
// maintained incrementally. Iteration i relabels leaf t_{i−1} from y to x
// and leaf tᵢ from 1 to y, updating only the two root paths — O(dᵢ) work per
// tuple, O(Σdᵢ + n log n) total (Table 3).
//
// The paper's ∧-node update rule divides by the child's previous value,
// which is ill-defined when that value is 0 (every leaf labeled y has
// F(α,0) = 0, so this happens on every iteration). Each ∧ node therefore
// maintains the product of its *non-zero* children plus a zero counter,
// making every update exact and division-by-zero free.

// prfeEval holds the incremental evaluation state for one α.
type prfeEval struct {
	t *Tree
	// Node values at the two evaluation points, indexed by node idx.
	vAA, vA0 []complex128
	// ∧-node state: product of non-zero child values and zero counts.
	prodAA, prodA0 []complex128
	zeroAA, zeroA0 []int
}

func newPRFeEval(t *Tree) *prfeEval {
	m := t.NodeCount()
	e := &prfeEval{
		t:      t,
		vAA:    make([]complex128, m),
		vA0:    make([]complex128, m),
		prodAA: make([]complex128, m),
		prodA0: make([]complex128, m),
		zeroAA: make([]int, m),
		zeroA0: make([]int, m),
	}
	e.initNode(t.root)
	return e
}

// initNode computes the initial bottom-up values with every leaf labeled 1.
func (e *prfeEval) initNode(n *Node) (vAA, vA0 complex128) {
	switch n.kind {
	case Leaf:
		e.vAA[n.idx], e.vA0[n.idx] = 1, 1
		return 1, 1
	case Xor:
		residual := 1.0
		for _, p := range n.edgeProbs {
			residual -= p
		}
		sAA := complex(residual, 0)
		sA0 := complex(residual, 0)
		for i, c := range n.children {
			cAA, cA0 := e.initNode(c)
			p := complex(n.edgeProbs[i], 0)
			sAA += p * cAA
			sA0 += p * cA0
		}
		e.vAA[n.idx], e.vA0[n.idx] = sAA, sA0
		return sAA, sA0
	default: // And
		prodAA, prodA0 := complex128(1), complex128(1)
		zAA, zA0 := 0, 0
		for _, c := range n.children {
			cAA, cA0 := e.initNode(c)
			if cAA == 0 {
				zAA++
			} else {
				prodAA *= cAA
			}
			if cA0 == 0 {
				zA0++
			} else {
				prodA0 *= cA0
			}
		}
		e.prodAA[n.idx], e.prodA0[n.idx] = prodAA, prodA0
		e.zeroAA[n.idx], e.zeroA0[n.idx] = zAA, zA0
		vAA = andValue(prodAA, zAA)
		vA0 = andValue(prodA0, zA0)
		e.vAA[n.idx], e.vA0[n.idx] = vAA, vA0
		return vAA, vA0
	}
}

// reset restores the all-leaves-1 labeling by re-running the bottom-up
// initialization over the existing buffers — the same arithmetic as a fresh
// newPRFeEval, with zero allocations. (∧-node product/zero state is only read
// for ∧ nodes, so stale entries at other indices are harmless.)
func (e *prfeEval) reset() { e.initNode(e.t.root) }

func andValue(prod complex128, zeros int) complex128 {
	if zeros > 0 {
		return 0
	}
	return prod
}

// updateProd replaces one factor of a zero-tracked product.
func updateProd(prod complex128, zeros int, old, new complex128) (complex128, int) {
	switch {
	case old == 0 && new == 0:
		return prod, zeros
	case old == 0:
		return prod * new, zeros - 1
	case new == 0:
		return prod / old, zeros + 1
	default:
		return prod / old * new, zeros
	}
}

// setLeaf relabels a leaf to the given evaluation values and refreshes the
// path to the root.
func (e *prfeEval) setLeaf(l *Node, newAA, newA0 complex128) {
	oldAA, oldA0 := e.vAA[l.idx], e.vA0[l.idx]
	if exact.SameC(oldAA, newAA) && exact.SameC(oldA0, newA0) {
		return
	}
	e.vAA[l.idx], e.vA0[l.idx] = newAA, newA0
	child := l
	chOldAA, chNewAA := oldAA, newAA
	chOldA0, chNewA0 := oldA0, newA0
	for v := child.parent; v != nil; v = v.parent {
		prevAA, prevA0 := e.vAA[v.idx], e.vA0[v.idx]
		if v.kind == And {
			e.prodAA[v.idx], e.zeroAA[v.idx] = updateProd(e.prodAA[v.idx], e.zeroAA[v.idx], chOldAA, chNewAA)
			e.prodA0[v.idx], e.zeroA0[v.idx] = updateProd(e.prodA0[v.idx], e.zeroA0[v.idx], chOldA0, chNewA0)
			e.vAA[v.idx] = andValue(e.prodAA[v.idx], e.zeroAA[v.idx])
			e.vA0[v.idx] = andValue(e.prodA0[v.idx], e.zeroA0[v.idx])
		} else { // Xor (leaves have no children)
			p := complex(v.edgeProbs[child.parentIdx], 0)
			e.vAA[v.idx] = prevAA + p*(chNewAA-chOldAA)
			e.vA0[v.idx] = prevA0 + p*(chNewA0-chOldA0)
		}
		chOldAA, chNewAA = prevAA, e.vAA[v.idx]
		chOldA0, chNewA0 = prevA0, e.vA0[v.idx]
		child = v
	}
}

// PRFeValues computes Υ_α for every leaf with the incremental Algorithm 3.
// α may be complex; for ranking with real α use RankPRFe or take AbsParts.
// One-shot convenience: prepares the tree and evaluates once. Anything that
// queries the same tree more than once (α grids, term combinations) should
// hold a PreparedTree instead.
func PRFeValues(t *Tree, alpha complex128) []complex128 {
	return PrepareTree(t).PRFe(alpha)
}

// PRFeValuesNaive recomputes the whole tree for every tuple — the O(n²)
// baseline Algorithm 3 improves on. Kept as the cross-check oracle and for
// the Table 3 ablation benchmark.
func PRFeValuesNaive(t *Tree, alpha complex128) []complex128 {
	out := make([]complex128, t.Len())
	order := t.sortedLeafOrder()
	pos := make([]int, t.Len())
	for i, id := range order {
		pos[id] = i
	}
	for i, id := range order {
		fAA := evalScalar(t.root, pos, i, alpha, alpha)
		fA0 := evalScalar(t.root, pos, i, alpha, 0)
		out[id] = fAA - fA0
	}
	return out
}

// evalScalar evaluates the generating function numerically with leaf labels
// determined by sorted position: pos < i ↦ x, pos == i ↦ y, else 1.
func evalScalar(n *Node, pos []int, i int, x, y complex128) complex128 {
	switch n.kind {
	case Leaf:
		switch {
		case pos[n.id] < i:
			return x
		case pos[n.id] == i:
			return y
		default:
			return 1
		}
	case Xor:
		residual := 1.0
		for _, p := range n.edgeProbs {
			residual -= p
		}
		s := complex(residual, 0)
		for c, ch := range n.children {
			s += complex(n.edgeProbs[c], 0) * evalScalar(ch, pos, i, x, y)
		}
		return s
	default:
		prod := complex128(1)
		for _, ch := range n.children {
			prod *= evalScalar(ch, pos, i, x, y)
		}
		return prod
	}
}

// RankPRFe returns the PRFe(α) ranking of the tree's leaves for real α,
// ranking by |Υ| as the paper's top-k definition prescribes.
func RankPRFe(t *Tree, alpha float64) pdb.Ranking {
	return PrepareTree(t).RankPRFe(alpha)
}
