package junction

import (
	"context"
	"math/bits"

	"repro/internal/pdb"
)

// This file implements the Section 9.4 dynamic program: given the calibrated
// junction tree, compute for each tuple t the distribution of
//
//	P = Σ_{u ranked above t} X_u   jointly with   X_t = 1,
//
// which is exactly the rank distribution: Pr(r(t)=j) = Pr(X_t=1 ∧ P=j−1).
//
// The recursion computes, bottom-up, Pr(S, P_S) for every separator S, where
// P_S sums the δ-marked indicators appearing strictly below S. At a clique C
// with parent separator S and children separators S_1..S_k:
//
//	Pr(C, ΣP_{S_l}) = Pr(C)·∏_l Pr(S_l, P_{S_l})/Pr(S_l)   (Markov property)
//
// convolved child by child, then C's own variables (C \ S, each counted at
// exactly one clique thanks to the running-intersection property) shift the
// partial sum, and C \ S is marginalized out. The evidence X_t = 1 is folded
// in by restricting every summation to consistent assignments, which is
// equivalent to the paper's "condition and re-calibrate" step but never
// splits the tree.
//
// The DP runs over a dpEval, which separates the query-independent indexing
// (cliqueLayout: assignment→separator maps, own-variable bit positions —
// built once per tree) from the per-evaluation buffers (the acc/msg arrays —
// reused across every tuple of a rank-distribution pass, and pooled by
// PreparedNetwork across queries). Assignments ruled out by a zero clique
// potential or by the X_t = 1 evidence are skipped up front rather than
// materialized and discarded, which matters on wide cliques where evidence
// kills half of the 2^|C| assignments before any convolution runs.

// cliqueLayout caches the query-independent index maps of one clique's DP
// step.
type cliqueLayout struct {
	// sepMap maps a clique assignment to the induced assignment of the
	// parent separator.
	sepMap []int
	// childSep maps, per child, a clique assignment to the induced
	// assignment of that child's separator.
	childSep [][]int
	// ownPos holds the bit positions (within vars) of the clique's own
	// variables, aligned with ownVars.
	ownPos []int
}

// layoutsOnce builds (once) and returns the per-clique layouts.
func (jt *JTree) layoutsOnce() []cliqueLayout {
	jt.layoutOnce.Do(func() {
		ls := make([]cliqueLayout, len(jt.cliques))
		for ci := range jt.cliques {
			c := &jt.cliques[ci]
			nv := len(c.vars)
			l := &ls[ci]
			l.sepMap = sepIndexMap(c.vars, c.sepVars, nv)
			l.childSep = make([][]int, len(c.children))
			for k, chi := range c.children {
				l.childSep[k] = sepIndexMap(c.vars, jt.cliques[chi].sepVars, nv)
			}
			l.ownPos = make([]int, len(c.ownVars))
			for k, v := range c.ownVars {
				l.ownPos[k] = indexOf(c.vars, v)
			}
		}
		jt.layouts = ls
	})
	return jt.layouts
}

// sepIndexMap precomputes, for every assignment of vars, the induced
// assignment of sepVars ⊆ vars.
func sepIndexMap(vars, sepVars []int, nv int) []int {
	pos := make([]int, len(sepVars))
	for k, v := range sepVars {
		pos[k] = indexOf(vars, v)
	}
	m := make([]int, 1<<nv)
	for idx := range m {
		sidx := 0
		for k := range pos {
			if idx&(1<<pos[k]) != 0 {
				sidx |= 1 << k
			}
		}
		m[idx] = sidx
	}
	return m
}

// dpEval is one evaluation state for the partial-sum DP: per-clique
// assignment (acc) and separator-message (msg) buffers whose top-level
// arrays are allocated once and reused for every rankDP call. A dpEval is
// not safe for concurrent use; PreparedNetwork pools them per worker.
type dpEval struct {
	jt      *JTree
	layouts []cliqueLayout
	acc     [][][]float64
	msg     [][][]float64
	delta   []bool
}

// newDPEval sizes the buffers for the tree.
func (jt *JTree) newDPEval() *dpEval {
	e := &dpEval{
		jt:      jt,
		layouts: jt.layoutsOnce(),
		acc:     make([][][]float64, len(jt.cliques)),
		msg:     make([][][]float64, len(jt.cliques)),
		delta:   make([]bool, jt.net.n),
	}
	for ci := range jt.cliques {
		c := &jt.cliques[ci]
		e.acc[ci] = make([][]float64, 1<<len(c.vars))
		e.msg[ci] = make([][]float64, 1<<len(c.sepVars))
	}
	return e
}

// reset clears the per-query delta mask before a pooled dpEval is handed
// to a new query. acc and msg need no clearing — every DP pass replaces
// their entries wholesale before reading them — but delta is read-modify
// (callers flip individual bits), so a stale mask from the previous query
// would silently count the wrong variables.
func (e *dpEval) reset() {
	for i := range e.delta {
		e.delta[i] = false
	}
}

// unitVec and zeroVec are shared read-only seed vectors: the DP only ever
// replaces acc/msg entries, never writes through them.
var (
	unitVec = []float64{1}
	zeroVec = []float64{0}
)

// rankDP computes Pr(X_target=1 ∧ P = p) for p = 0..n−1, where P counts the
// variables marked in e.delta.
func (e *dpEval) rankDP(target int) []float64 {
	msg := e.cliqueDP(e.jt.root, target)
	// The root has no parent separator: msg has a single assignment slot.
	return msg[0]
}

// cliqueDP returns, for each assignment s of the clique's parent separator,
// the vector over p of
//
//	Pr(S_p = s ∧ X_target=1 below ∧ P_{S_p} = p)
//
// (with the X_target evidence applied only if target appears in the subtree
// strictly below or inside this clique but outside the parent separator —
// applying it once is guaranteed because the cliques containing target form
// a connected subtree and the restriction at every one of them is
// consistent).
func (e *dpEval) cliqueDP(ci, target int) [][]float64 {
	jt := e.jt
	c := &jt.cliques[ci]
	l := &e.layouts[ci]
	targetPos := indexOf(c.vars, target)
	acc := e.acc[ci]

	// Seed consistent assignments with the empty partial sum. Assignments
	// with a zero clique potential, or inconsistent with the X_target = 1
	// evidence, are dropped here — before any child message is convolved
	// into them — instead of being materialized and nilled at the multiply
	// step.
	for idx := range acc {
		if c.pot[idx] == 0 || (targetPos >= 0 && idx&(1<<targetPos) == 0) {
			acc[idx] = nil
			continue
		}
		acc[idx] = unitVec
	}

	// Fold in children one by one.
	for k, chi := range c.children {
		ch := &jt.cliques[chi]
		childMsg := e.cliqueDP(chi, target)
		sep := l.childSep[k]
		for idx := range acc {
			if acc[idx] == nil {
				continue
			}
			sidx := sep[idx]
			den := ch.sepPot[sidx]
			if den == 0 {
				// Zero-probability separator assignment: the clique
				// assignment itself has probability 0.
				acc[idx] = nil
				continue
			}
			conv := convolve(acc[idx], childMsg[sidx])
			for p := range conv {
				conv[p] /= den
			}
			acc[idx] = conv
		}
	}

	// Multiply by the clique marginal and shift by the clique's own δ-marked
	// variables.
	ownDeltaMask := 0
	for k, v := range c.ownVars {
		if e.delta[v] {
			ownDeltaMask |= 1 << l.ownPos[k]
		}
	}
	for idx := range acc {
		if acc[idx] == nil {
			continue
		}
		w := c.pot[idx]
		shift := bits.OnesCount(uint(idx & ownDeltaMask))
		v := acc[idx]
		out := make([]float64, len(v)+shift)
		for p, x := range v {
			out[p+shift] = x * w
		}
		acc[idx] = out
	}

	// Marginalize out C \ S_p.
	out := e.msg[ci]
	for sidx := range out {
		out[sidx] = nil
	}
	for idx, v := range acc {
		if v == nil {
			continue
		}
		sidx := l.sepMap[idx]
		out[sidx] = addVec(out[sidx], v)
	}
	for sidx := range out {
		if out[sidx] == nil {
			out[sidx] = zeroVec
		}
	}
	return out
}

func convolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, x := range a {
		if x == 0 {
			continue
		}
		for j, y := range b {
			out[i+j] += x * y
		}
	}
	return out
}

func addVec(a, b []float64) []float64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make([]float64, len(a))
	copy(out, a)
	for i := range b {
		out[i] += b[i]
	}
	return out
}

// RankDistribution computes the full positional-probability matrix of the
// network. One-shot wrapper: prepares the network (junction-tree build and
// calibration) and runs the DP once. Anything that queries the same network
// more than once should hold a PreparedNetwork instead.
func RankDistribution(net *Network) (*pdb.RankDistribution, error) {
	pn, err := PrepareNetwork(net)
	if err != nil {
		return nil, err
	}
	return pn.RankDistribution(), nil
}

// RankDistribution runs the Section 9.4 DP for every tuple on an
// already-built tree — the per-query reference kernel behind
// PreparedNetwork.RankDistribution.
func (jt *JTree) RankDistribution() *pdb.RankDistribution {
	return jt.newDPEval().rankDistribution()
}

// rankDistribution runs the full per-tuple DP over this evaluation state.
func (e *dpEval) rankDistribution() *pdb.RankDistribution {
	net := e.jt.net
	n := net.n
	order := net.sortedOrder()
	dist := make([][]float64, n)
	for i, v := range order {
		// delta marks variables ranked strictly above v.
		for j := range e.delta {
			e.delta[j] = false
		}
		for j := 0; j < i; j++ {
			e.delta[order[j]] = true
		}
		sums := e.rankDP(v)
		row := make([]float64, i+1)
		for p := 0; p < len(sums) && p <= i; p++ {
			row[p] = sums[p] // Pr(X_v=1 ∧ P=p) = Pr(r(v)=p+1)
		}
		dist[v] = row
	}
	return &pdb.RankDistribution{Dist: dist}
}

// PRFe computes Υ_α for every tuple of the network via the rank
// distribution. One-shot prepare-then-call wrapper. (No faster
// special-purpose algorithm is known for general graphical models; the
// paper's O(n log n) PRFe algorithms apply to and/xor trees, and
// PreparedChain serves the Markov-chain special case.)
func PRFe(net *Network, alpha complex128) ([]complex128, error) {
	pn, err := PrepareNetwork(net)
	if err != nil {
		return nil, err
	}
	return pn.PRFe(alpha), nil
}

// prfeFold folds one rank-distribution row with powers of α — the shared
// kernel of every PRFe-from-rank-distribution path, so prepared and
// one-shot results are bit-for-bit identical.
func prfeFold(row []float64, alpha complex128) complex128 {
	var out complex128
	pw := alpha
	for _, p := range row {
		out += complex(p, 0) * pw
		pw *= alpha
	}
	return out
}

// ExpectedRanks returns E[r(t)] for every tuple of the network, with absent
// tuples taking rank |pw| (the E-Rank convention). By linearity of
// expectation E[r(t)] = E|pw| − Σ_{s ranked after t} Pr(X_s = 1 ∧ X_t = 1),
// and one Section 9.4 partial-sum DP per tuple yields that sum — the paper's
// remark that the expected-rank algorithms generalize to bounded-treewidth
// graphical models, with no rank-distribution matrix.
func (jt *JTree) ExpectedRanks() []float64 {
	out, _ := jt.newDPEval().expectedRanks(nil) // a nil ctx never cancels
	return out
}

// expectedRanks runs, per tuple t in score order, the DP with the variables
// ranked after t marked: Σ_p p·Pr(X_t = 1 ∧ P = p) is Σ_{s after t}
// Pr(X_s = 1 ∧ X_t = 1). ctx is checked before each tuple's DP.
func (e *dpEval) expectedRanks(ctx context.Context) ([]float64, error) {
	jt := e.jt
	n := jt.net.n
	var c float64 // E|pw| = Σ marginals
	for v := 0; v < n; v++ {
		c += jt.VariableMarginal(v)
	}
	for u := range e.delta {
		e.delta[u] = true
	}
	out := make([]float64, n)
	for _, v := range jt.net.sortedOrder() {
		if err := pdb.CtxErr(ctx); err != nil {
			return nil, err
		}
		e.delta[v] = false // the variables still marked rank after v
		var after float64
		for p, q := range e.rankDP(v) {
			after += float64(p) * q
		}
		out[v] = c - after
	}
	return out, nil
}
