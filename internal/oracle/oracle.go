// Package oracle is the repository's independent ground truth: a
// brute-force possible-worlds enumeration engine that computes every ranking
// semantics from first principles — materialize (stream) every world,
// accumulate the exact rank distribution and absence masses, fold the
// metric's definition — with none of the generating-function, product-tree
// or DP machinery the fast backends use. Every backend × metric × output
// combination of the unified engine is certified against it (Certify) on
// small instances, so the fast paths are pinned to the paper's definitions
// rather than to each other.
//
// The enumerators cover all four correlation models: tuple-independent
// datasets (bitmask streaming, no 2^n world allocation), and/xor trees and
// x-relations (xor-choice enumeration via andxor.Tree.EnumerateWorlds), and
// Markov chains (bitmask assignments priced from the calibrated pairwise
// joints alone). Junction-tree networks are certified through chains
// converted with Chain.Network, which exercises the full triangulate → DP
// pipeline on the same ground truth.
package oracle

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// MaxTuples bounds the exact enumerators: 2^MaxTuples worlds stream through
// the accumulator. 18 keeps the worst case (~262k worlds × n work each)
// well under a second.
const MaxTuples = 18

// Tolerance is the scaled comparison tolerance Certify applies: values
// agree when |a−b| ≤ Tolerance·max(1, |a|, |b|). The backends accumulate in
// different orders, so bit-equality is not the contract — 1e-9 is ~7
// decimal digits of slack on top of the ≤1e-12 certification the kernels
// carry against each other.
const Tolerance = 1e-9

// Oracle holds the exact per-tuple statistics accumulated over every
// possible world of one instance: the positional-probability matrix plus
// the absence masses every rank-metric definition needs. All slices are
// indexed by TupleID.
type Oracle struct {
	n      int
	scores []float64
	// rd[id][pos] = Pr(r(t) = pos+1): the exact rank distribution.
	rd [][]float64
	// absentMass[id] = Pr(t ∉ pw).
	absentMass []float64
	// absentSize[id] = Σ_{pw: t∉pw} Pr(pw)·|pw| — the E-Rank absent term
	// under the Cormode convention (absent tuples take rank |pw|).
	absentSize []float64
	// total is the accumulated world mass (≈1; enumeration drops
	// zero-probability worlds, never positive mass).
	total   float64
	scratch []bool
}

// New returns an empty accumulator over n = len(scores) tuples; scores are
// indexed by TupleID. Feed it worlds with AddWorld, or use the FromDataset /
// FromTree / FromChain enumerators.
func New(scores []float64) *Oracle {
	n := len(scores)
	o := &Oracle{
		n:          n,
		scores:     append([]float64(nil), scores...),
		rd:         make([][]float64, n),
		absentMass: make([]float64, n),
		absentSize: make([]float64, n),
		scratch:    make([]bool, n),
	}
	for i := range o.rd {
		o.rd[i] = make([]float64, n)
	}
	return o
}

// AddWorld accumulates one world: present lists the world's tuples in
// ranked (best-first) order, prob its probability. Duplicate tuple sets are
// fine — accumulation is linear — so enumerators need not merge worlds.
func (o *Oracle) AddWorld(present []pdb.TupleID, prob float64) {
	if prob == 0 {
		return
	}
	for pos, id := range present {
		o.rd[id][pos] += prob
		o.scratch[id] = true
	}
	size := float64(len(present))
	for id := 0; id < o.n; id++ {
		if o.scratch[id] {
			o.scratch[id] = false
			continue
		}
		o.absentMass[id] += prob
		o.absentSize[id] += prob * size
	}
	o.total += prob
}

// Len returns the number of tuples.
func (o *Oracle) Len() int { return o.n }

// TotalMass returns the accumulated world probability (≈1 on a complete
// enumeration).
func (o *Oracle) TotalMass() float64 { return o.total }

// RankDistribution returns a copy of the exact positional-probability
// matrix, indexed by TupleID then 0-based position.
func (o *Oracle) RankDistribution() *pdb.RankDistribution {
	dist := make([][]float64, o.n)
	for id := range dist {
		dist[id] = append([]float64(nil), o.rd[id]...)
	}
	return &pdb.RankDistribution{Dist: dist}
}

// ---------------------------------------------------------------------------
// Enumerators, one per correlation model.
// ---------------------------------------------------------------------------

// FromDataset enumerates every world of a tuple-independent dataset through
// a streaming bitmask loop: no world list is ever materialized.
func FromDataset(d *pdb.Dataset) (*Oracle, error) {
	n := d.Len()
	if n > MaxTuples {
		return nil, fmt.Errorf("oracle: refusing to enumerate 2^%d worlds (max %d tuples)", n, MaxTuples)
	}
	ordered := d.Clone()
	ordered.SortByScore()
	ts := ordered.Tuples()
	scores := make([]float64, n)
	for _, t := range ts {
		scores[t.ID] = t.Score
	}
	o := New(scores)
	present := make([]pdb.TupleID, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		prob := 1.0
		present = present[:0]
		for i, t := range ts {
			if mask&(1<<i) != 0 {
				prob *= t.Prob
				present = append(present, t.ID) // ts is in ranked order
			} else {
				prob *= 1 - t.Prob
			}
		}
		o.AddWorld(present, prob)
	}
	return o, nil
}

// FromTree enumerates every world of an and/xor tree (which covers
// x-relations: an x-relation is a ∧ root over ∨ groups). The tree's own
// xor-choice enumeration supplies the worlds; the oracle folds the metric
// definitions over them from scratch.
func FromTree(t *andxor.Tree) (*Oracle, error) {
	if t.Len() > MaxTuples {
		return nil, fmt.Errorf("oracle: tree has %d leaves (max %d)", t.Len(), MaxTuples)
	}
	worlds, err := t.EnumerateWorlds(0)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, t.Len())
	for id := range scores {
		scores[id] = t.Leaf(pdb.TupleID(id)).Score
	}
	o := New(scores)
	for _, w := range worlds {
		o.AddWorld(w.Present, w.Prob)
	}
	return o, nil
}

// FromChain enumerates every assignment of a Markov chain's presence
// variables, pricing each from the calibrated pairwise joints alone —
// Pr(y) = Pr(Y₀,Y₁) · ∏_j Pr(Y_{j+1}|Y_j) — independent of every chain
// kernel. Tuple IDs are the variable indices.
func FromChain(c *junction.Chain) (*Oracle, error) {
	n := c.Len()
	if n > MaxTuples {
		return nil, fmt.Errorf("oracle: chain has %d variables (max %d)", n, MaxTuples)
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = c.Score(i)
	}
	// Ranked order of the variable indices: score desc, index asc — the
	// same strict total order every chain kernel uses.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	joints := make([][2][2]float64, n-1)
	margs := make([][2]float64, n-1) // margs[j][a] = Pr(Y_j = a)
	for j := 0; j < n-1; j++ {
		joints[j] = c.PairJoint(j)
		margs[j] = [2]float64{joints[j][0][0] + joints[j][0][1], joints[j][1][0] + joints[j][1][1]}
	}
	o := New(scores)
	present := make([]pdb.TupleID, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		y := func(i int) int { return (mask >> i) & 1 }
		prob := joints[0][y(0)][y(1)]
		for j := 1; j < n-1 && prob != 0; j++ {
			m := margs[j][y(j)]
			if m == 0 {
				prob = 0
				break
			}
			prob *= joints[j][y(j)][y(j+1)] / m
		}
		if prob == 0 {
			continue
		}
		present = present[:0]
		for _, v := range order {
			if y(v) == 1 {
				present = append(present, pdb.TupleID(v))
			}
		}
		o.AddWorld(present, prob)
	}
	return o, nil
}

// ---------------------------------------------------------------------------
// Metric definitions, folded directly over the accumulated statistics.
// ---------------------------------------------------------------------------

// PresenceProb returns Pr(t ∈ pw) per tuple (the row mass of the rank
// distribution).
func (o *Oracle) PresenceProb() []float64 {
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		for _, p := range o.rd[id] {
			out[id] += p
		}
	}
	return out
}

// PRF evaluates Υω(t) = Σ_j ω(t, j)·Pr(r(t) = j) for an arbitrary weight
// function (Definition 2; absent worlds contribute nothing, the paper's
// ω(t, ∞) = 0 convention).
func (o *Oracle) PRF(omega func(t pdb.Tuple, rank int) float64) []float64 {
	presence := o.PresenceProb()
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		tu := pdb.Tuple{ID: pdb.TupleID(id), Score: o.scores[id], Prob: presence[id]}
		for j, p := range o.rd[id] {
			if p != 0 {
				out[id] += omega(tu, j+1) * p
			}
		}
	}
	return out
}

// PRFOmega evaluates the PRFω(h) family: w[j] weighs rank j+1, ranks beyond
// len(w) weigh zero.
func (o *Oracle) PRFOmega(w []float64) []float64 {
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		for j, p := range o.rd[id] {
			if j < len(w) && p != 0 {
				out[id] += w[j] * p
			}
		}
	}
	return out
}

// PTh evaluates Pr(r(t) ≤ h).
func (o *Oracle) PTh(h int) []float64 {
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		for j, p := range o.rd[id] {
			if j < h {
				out[id] += p
			}
		}
	}
	return out
}

// GlobalTopk evaluates the Zhang/Chomicki Global-Topk value
// Pr(t ∈ top-k(pw)), which equals Pr(r(t) ≤ k).
func (o *Oracle) GlobalTopk(k int) []float64 { return o.PTh(k) }

// PRFe evaluates Υ_α(t) = Σ_j Pr(r(t) = j)·α^j.
func (o *Oracle) PRFe(alpha complex128) []complex128 {
	out := make([]complex128, o.n)
	for id := 0; id < o.n; id++ {
		pow := alpha
		for _, p := range o.rd[id] {
			out[id] += complex(p, 0) * pow
			pow *= alpha
		}
	}
	return out
}

// PRFeCombo evaluates Σ_l u_l·Υ_{α_l}(t), terms in order.
func (o *Oracle) PRFeCombo(us, alphas []complex128) []complex128 {
	out := make([]complex128, o.n)
	for l := range us {
		vals := o.PRFe(alphas[l])
		for id, v := range vals {
			out[id] += us[l] * v
		}
	}
	return out
}

// ERank evaluates the Cormode-convention expected rank: present worlds
// contribute the rank, absent worlds contribute |pw|.
func (o *Oracle) ERank() []float64 {
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		for j, p := range o.rd[id] {
			out[id] += float64(j+1) * p
		}
		out[id] += o.absentSize[id]
	}
	return out
}

// ExpectedRank evaluates the Li/Deshpande consensus expected rank: absent
// worlds contribute |pw|+1.
func (o *Oracle) ExpectedRank() []float64 {
	out := o.ERank()
	for id := 0; id < o.n; id++ {
		out[id] += o.absentMass[id]
	}
	return out
}

// MedianRank evaluates the consensus median rank: the smallest j with
// Pr(r(t) ≤ j) ≥ 1/2 (absent → rank ∞), sentinel n+1 when no finite rank
// accumulates half the mass.
func (o *Oracle) MedianRank() []float64 {
	out := make([]float64, o.n)
	for id := 0; id < o.n; id++ {
		out[id] = pdb.MedianRankSentinel(o.n)
		cum := 0.0
		for j, p := range o.rd[id] {
			cum += p
			if cum >= 0.5 {
				out[id] = float64(j + 1)
				break
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Conformance: drive a backend through the engine and compare.
// ---------------------------------------------------------------------------

// Certify runs q against the backend r through the unified engine and
// checks the answer against this oracle's ground truth: values within
// Tolerance, rankings as permutations whose oracle key values are
// non-increasing, top-k answers additionally separated from every excluded
// tuple. A PRFe query with a non-empty Alphas grid runs through RankBatch
// and certifies every grid point. A non-nil error describes the first
// mismatch.
func (o *Oracle) Certify(ctx context.Context, r engine.Ranker, q engine.Query) error {
	if r.Len() != o.n {
		return fmt.Errorf("oracle: backend has %d tuples, oracle %d", r.Len(), o.n)
	}
	eng := engine.New(r)
	if q.Metric == engine.MetricPRFe && len(q.Alphas) > 0 {
		results, err := eng.RankBatch(ctx, q)
		if err != nil {
			return fmt.Errorf("oracle: RankBatch: %w", err)
		}
		for a, res := range results {
			single := q
			single.Alphas = nil
			single.Alpha = q.Alphas[a]
			if err := o.checkResult(&res, single); err != nil {
				return fmt.Errorf("grid point %d (α=%v): %w", a, q.Alphas[a], err)
			}
		}
		return nil
	}
	res, err := eng.Rank(ctx, q)
	if err != nil {
		return fmt.Errorf("oracle: Rank: %w", err)
	}
	return o.checkResult(res, q)
}

// checkResult certifies one single-evaluation result against the oracle.
func (o *Oracle) checkResult(res *engine.Result, q engine.Query) error {
	switch q.Output {
	case engine.OutputValues:
		switch q.Metric {
		case engine.MetricPRFe:
			return compareComplex(res.Complex, o.PRFe(complex(q.Alpha, 0)), o.n)
		case engine.MetricPRFeCombo:
			us, alphas := splitTerms(q.Terms)
			return compareComplex(res.Complex, o.PRFeCombo(us, alphas), o.n)
		default:
			want, err := o.realValues(q)
			if err != nil {
				return err
			}
			return compareReal(res.Values, want, o.n)
		}
	case engine.OutputRanking, engine.OutputTopK:
		key, err := o.rankingKey(q)
		if err != nil {
			return err
		}
		return o.checkRanking(res.Ranking, key, q)
	default:
		return fmt.Errorf("oracle: unknown output %v", q.Output)
	}
}

// realValues folds the oracle definition of a real-valued metric.
func (o *Oracle) realValues(q engine.Query) ([]float64, error) {
	switch q.Metric {
	case engine.MetricPRFOmega:
		return o.PRFOmega(q.Weights), nil
	case engine.MetricPTh:
		return o.PTh(q.H), nil
	case engine.MetricPRF:
		return o.PRF(q.Omega), nil
	case engine.MetricERank:
		return o.ERank(), nil
	case engine.MetricGlobalTopk:
		return o.GlobalTopk(q.K), nil
	case engine.MetricExpectedRank:
		return o.ExpectedRank(), nil
	case engine.MetricMedianRank:
		return o.MedianRank(), nil
	default:
		return nil, fmt.Errorf("oracle: no real-valued definition for %v", q.Metric)
	}
}

// rankingKey returns the per-tuple sort key (higher = better) the metric's
// rankings must be non-increasing in. PRFe ranks by |Υ| (the backends' two
// native conventions — log-domain magnitude and RankByAbs — both order by
// it), combos by real part (the learn.RankWithCombo convention), and the
// rank metrics by negated value (lower rank = better).
func (o *Oracle) rankingKey(q engine.Query) ([]float64, error) {
	switch q.Metric {
	case engine.MetricPRFe:
		vals := o.PRFe(complex(q.Alpha, 0))
		key := make([]float64, o.n)
		for id, v := range vals {
			key[id] = cmplx.Abs(v)
		}
		return key, nil
	case engine.MetricPRFeCombo:
		us, alphas := splitTerms(q.Terms)
		vals := o.PRFeCombo(us, alphas)
		key := make([]float64, o.n)
		for id, v := range vals {
			key[id] = real(v)
		}
		return key, nil
	case engine.MetricERank, engine.MetricExpectedRank, engine.MetricMedianRank:
		vals, err := o.realValues(q)
		if err != nil {
			return nil, err
		}
		for id := range vals {
			vals[id] = -vals[id]
		}
		return vals, nil
	default:
		return o.realValues(q)
	}
}

// checkRanking validates a ranking (or top-k answer) against a key vector.
func (o *Oracle) checkRanking(rk pdb.Ranking, key []float64, q engine.Query) error {
	if err := pdb.CheckRankingIDs(rk, o.n); err != nil {
		return err
	}
	wantLen := o.n
	if q.Output == engine.OutputTopK && q.K < wantLen {
		wantLen = q.K
	}
	if len(rk) != wantLen {
		return fmt.Errorf("oracle: ranking has %d entries, want %d", len(rk), wantLen)
	}
	for i := 0; i+1 < len(rk); i++ {
		a, b := key[rk[i]], key[rk[i+1]]
		if b > a && !closeEnough(a, b) {
			return fmt.Errorf("oracle: ranking positions %d,%d out of order: key(%d)=%v < key(%d)=%v",
				i, i+1, rk[i], a, rk[i+1], b)
		}
	}
	if q.Output == engine.OutputTopK && len(rk) > 0 && len(rk) < o.n {
		included := make([]bool, o.n)
		minIn := math.Inf(1)
		for _, id := range rk {
			included[id] = true
			if key[id] < minIn {
				minIn = key[id]
			}
		}
		for id := 0; id < o.n; id++ {
			if !included[id] && key[id] > minIn && !closeEnough(key[id], minIn) {
				return fmt.Errorf("oracle: excluded tuple %d beats included minimum: key=%v > %v",
					id, key[id], minIn)
			}
		}
	}
	return nil
}

// splitTerms mirrors the engine's term decomposition (order preserved).
func splitTerms(terms []core.ExpTerm) (us, alphas []complex128) {
	us = make([]complex128, len(terms))
	alphas = make([]complex128, len(terms))
	for i, t := range terms {
		us[i], alphas[i] = t.U, t.Alpha
	}
	return us, alphas
}

// closeEnough is the scaled tolerance comparison: exact for non-finite
// values, |a−b| ≤ Tolerance·max(1, |a|, |b|) otherwise.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	scale := 1.0
	if s := math.Abs(a); s > scale {
		scale = s
	}
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= Tolerance*scale
}

// compareReal checks two TupleID-indexed value vectors entry by entry.
func compareReal(got, want []float64, n int) error {
	if len(got) != n || len(want) != n {
		return fmt.Errorf("oracle: got %d values, want %d", len(got), n)
	}
	for id := range got {
		if !closeEnough(got[id], want[id]) {
			return fmt.Errorf("oracle: tuple %d: got %v, want %v (Δ=%v)",
				id, got[id], want[id], got[id]-want[id])
		}
	}
	return nil
}

// compareComplex checks two TupleID-indexed complex vectors component-wise.
func compareComplex(got, want []complex128, n int) error {
	if len(got) != n || len(want) != n {
		return fmt.Errorf("oracle: got %d values, want %d", len(got), n)
	}
	for id := range got {
		if !closeEnough(real(got[id]), real(want[id])) || !closeEnough(imag(got[id]), imag(want[id])) {
			return fmt.Errorf("oracle: tuple %d: got %v, want %v", id, got[id], want[id])
		}
	}
	return nil
}
