package andxor

// Expected ranks (the E-Rank baseline of Cormode et al., reviewed in
// Section 3.2) on correlated data. With absent tuples taking rank |pw|,
// linearity of expectation gives
//
//	E[r(t)] = E|pw| − Σ_{s ranked after t} Pr(s ∧ t),
//
// and the sum is a first derivative of the tree's generating function at
// x=1 with the leaves ranked after t labelled x: one O(n) dual-number tree
// walk per tuple — generalizing the prior expected-rank algorithms to
// and/xor trees as the paper remarks (Section 3.3).

// dualBi tracks (A(1), A'(1), B(1), B'(1)) of the bivariate generating
// function F = A(x) + B(x)·y under a leaf labeling.
type dualBi struct {
	a, da, b, db float64
}

// evalDual computes the dual-number evaluation for the labeling where the
// leaf at ranked position target carries y, the leaves ranked after it carry
// x, and the rest 1.
func evalDual(n *Node, pos []int, target int) dualBi {
	switch n.kind {
	case Leaf:
		switch {
		case pos[n.id] == target:
			return dualBi{b: 1}
		case pos[n.id] > target:
			return dualBi{a: 1, da: 1} // A(x)=x
		default:
			return dualBi{a: 1}
		}
	case Xor:
		residual := 1.0
		for _, p := range n.edgeProbs {
			residual -= p
		}
		out := dualBi{a: residual}
		for i, c := range n.children {
			p := n.edgeProbs[i]
			if p == 0 {
				continue
			}
			cd := evalDual(c, pos, target)
			out.a += p * cd.a
			out.da += p * cd.da
			out.b += p * cd.b
			out.db += p * cd.db
		}
		return out
	default: // And
		acc := dualBi{a: 1}
		for _, c := range n.children {
			cd := evalDual(c, pos, target)
			acc = dualBi{
				a:  acc.a * cd.a,
				da: acc.da*cd.a + acc.a*cd.da,
				b:  acc.a*cd.b + acc.b*cd.a,
				db: acc.da*cd.b + acc.a*cd.db + acc.db*cd.a + acc.b*cd.da,
			}
		}
		return acc
	}
}

// ExpectedRanks returns E[r(t)] for every leaf, where absent tuples take
// rank |pw| in their world (the Cormode et al. convention). O(n²) total.
// One-shot wrapper over PreparedTree.ERank.
func ExpectedRanks(t *Tree) []float64 {
	return PrepareTree(t).ERank()
}
