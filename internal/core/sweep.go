package core

import (
	"context"
	"errors"
	"fmt" //lint:allow kernelpurity fmt.Errorf/Sprintf on construction and validation paths only; no formatting in the per-tuple inner loops
	"math"
	"slices"

	"repro/internal/exact"
	"repro/internal/pdb"
)

// This file implements the kinetic spectrum engine: incremental maintenance
// of the PRFe(α) ranking as α sweeps upward through (0, 1].
//
// Theorem 4 proves that for independent tuples the value curves Υ_α of any
// two tuples cross at most once in α ∈ (0, 1): the ratio
//
//	ρ_{j,i}(α) = Υ_j(α)/Υ_i(α) = (p_j/p_i) · ∏_{l=i}^{j−1} (1 − p_l + p_l·α)
//
// (i < j sorted-by-score positions) is monotone increasing in α. The ranking
// therefore evolves along the α axis purely by adjacent transpositions — a
// kinetic sorted list. A Sweep materializes that structure in two
// complementary modes, both starting from one sort at the initial α:
//
// Predictive (event) mode — NewSweep/AdvanceTo, and SpectrumSize — schedules
// a pending crossing event for every adjacent pair that will swap and
// advances by popping events from a priority queue (a calendar queue of
// β-buckets with a small active heap), applying the swap and re-testing the
// two pairs that become newly adjacent. Advancing across K crossings costs
// O(n + K·(log n + solve)) total, and the event *times* themselves are the
// product: SpectrumSize counts distinct crossing times to report the exact
// number of rankings in the spectrum, which no grid sample can do.
// Monotonicity gives two O(1) facts the scheduler leans on hard: a pair
// whose upper tuple has the larger score position has already crossed and
// can never cross again, and otherwise a future crossing exists iff
// p_lower > p_upper, because ρ(1) = p_j/p_i. Only genuine crossings pay a
// root solve, and the solver is tiered: closed forms for one- and
// two-factor spans, a log-free secant iteration on the raw product for
// short spans, a prefix-power-sum series (O(M) per evaluation, span-free)
// for long spans at large α, and a renormalized log evaluator as the
// general fallback — every solve seeded by the closed-form second-order
// root, which typically lands within 1e-4 of the answer.
//
// Deferred (observational) mode — the grid sweeps RankPRFeSweep,
// TopKPRFeSweep, SpectrumSizeGrid — exploits the same theorem without
// predicting anything: between consecutive grid points the ranking changes
// by exactly the interval's adjacent transpositions, so the certification
// pass below applies them by insertion repair at amortized O(1) per
// crossing, roughly two orders of magnitude cheaper per transposition than
// solving for when it happens. Measurement drove this split: on the bench
// workload (n = 10⁴, 16-point grid, ~55k crossings) the event path costs
// ~150 ns per crossing — root solve plus queue traffic — while the
// insertion pass pays ~2 ns per crossing; predict only when the prediction
// itself is the answer.
//
// Exactness contract. Event times and value evaluations are float
// arithmetic of different shapes; near a crossing they can disagree about
// which side of a grid point a swap lands on, and at exact value ties the
// reference ranking breaks by tuple ID, which no event models. Every
// emitted ranking is therefore certified: the PRFe log-values are
// re-evaluated at the query α with bit-identical arithmetic to PRFeLog and
// one insertion pass restores RankByValue's exact order (value desc, ID
// asc) — O(n) plus one move per residual disagreement. The emitted ranking
// is bit-for-bit the ranking RankPRFe(α) returns; the equivalence suite in
// sweep_test.go pins this at every grid point, including ties, duplicates
// and zero-probability tuples. Both modes carry the same safety valve for
// event storms (Θ(n²) crossings cluster below α = 1 when probabilities
// nearly tie): past a 4n work budget they fall back to one O(n log n)
// re-sort, which is cheaper than walking the storm.
//
// A Sweep is single-owner: unlike the Prepared view it advances internal
// state and must not be shared between goroutines without external locking.

// sweepEvent is one pending adjacent-pair crossing: at α = beta the tuples
// occupying ranks k and k+1 — score positions left and right when the event
// was scheduled — swap. Events are invalidated lazily: if perm[k]/perm[k+1]
// no longer hold left/right at pop time, the adjacency was broken by an
// earlier swap and the event is dropped (the pair was re-tested when its new
// adjacency formed, so nothing is lost).
type sweepEvent struct {
	beta        float64
	k           int32
	left, right int32
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (beta, k). It avoids
// container/heap so pushes don't box events into interfaces — the grid sweep
// pushes two events per crossing and the allocation churn would dominate —
// and the wide fan-out halves the depth of the cache-missing sift-down walks
// that dominate heap cost at tens of thousands of pending events.
type eventHeap []sweepEvent

func (h eventHeap) before(a, b sweepEvent) bool {
	if !exact.Same(a.beta, b.beta) {
		return a.beta < b.beta
	}
	return a.k < b.k
}

func (h *eventHeap) push(e sweepEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	for {
		c := 4*i + 1
		if c >= len(h) {
			return
		}
		end := c + 4
		if end > len(h) {
			end = len(h)
		}
		smallest := i
		for l := c; l < end; l++ {
			if h.before(h[l], h[smallest]) {
				smallest = l
			}
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// heapify establishes the heap order over arbitrary contents (Floyd's
// bottom-up construction, O(len)) — used when a calendar bucket's unsorted
// event list is merged into the active heap.
func (h eventHeap) heapify() {
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *eventHeap) pop() sweepEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	s.siftDown(0)
	return top
}

// Sweep is a kinetic sorted list over the PRFe(α) spectrum of a Prepared
// view. Create one with Prepared.NewSweep at the smallest α of interest and
// move it monotonically upward with AdvanceTo / RankingAt / TopKAt. See the
// file comment for the algorithm and the exactness contract.
type Sweep struct {
	v     *Prepared
	alpha float64
	perm  []int // perm[k] = sorted-score position of the rank-k tuple

	// Pending events live in a calendar queue: the β domain (α₀, 1]
	// is cut into uniform buckets, far-future events are appended to their
	// bucket's unsorted list (O(1), cache-friendly), and only the bucket
	// currently being drained is kept heap-ordered. This keeps the hot
	// heap small — pops walk a few cache lines instead of a
	// tens-of-thousands-element tree.
	heap       eventHeap      // active bucket, heap-ordered
	buckets    [][]sweepEvent // future buckets, unsorted
	active     int            // index of the bucket heap currently drains
	bucketBase float64
	bucketInv  float64 // 1/(1−α₀); 0 when only one bucket

	logP []float64 // log p by sorted position (-Inf for p = 0)
	maxP float64

	// Prefix power sums for the series crossing evaluator, built lazily:
	// powSums[m][k] = Σ_{l<k} p_l^(m+1). powCur holds p_l^(m+1) for the
	// highest m built so the next order extends in one O(n) pass. maxM caps
	// the order so the lazily grown tables stay within a fixed memory
	// budget at any n.
	powSums [][]float64
	powCur  []float64
	maxM    int
	deltas  []float64 // per-solve ΔS_m scratch, reused across all solves

	// deferred marks the observational grid mode: no event queue at all —
	// each certified grid step applies the interval's transpositions by
	// insertion repair. Chosen by the grid sweep constructors; manual
	// NewSweep sweeps always run the predictive event queue, whose crossing
	// times are themselves the product (SpectrumSize, event introspection).
	deferred bool

	// betaTol is the convergence tolerance for event times: tight enough
	// (1e-10) that distinct crossing times are counted faithfully by the
	// exact spectrum enumeration, loose enough that the second-order seed
	// plus a couple of secant steps reach it.
	betaTol float64

	crossings     int
	distinctTimes int
	lastBeta      float64

	vals []float64 // certification scratch: PRFe log-values by position
}

// NewSweep builds the kinetic list positioned at alpha, which must lie in
// (0, 1]: it evaluates the PRFe log-values, sorts once, and schedules the
// initial crossing events. Subsequent queries must be at non-decreasing α.
func (v *Prepared) NewSweep(alpha float64) *Sweep {
	return v.newSweep(alpha, false)
}

// newSweep is NewSweep with mode selection: deferred sweeps skip the event
// infrastructure entirely (no initial scheduling, no seed tables, no
// calendar) because their grid steps repair by insertion instead.
func (v *Prepared) newSweep(alpha float64, deferred bool) *Sweep {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("core: NewSweep alpha %v outside (0,1]", alpha))
	}
	n := v.Len()
	maxM := seriesMaxM
	if n > 0 {
		if byBudget := seriesMemBudget / (8 * (n + 1)); byBudget < maxM {
			maxM = byBudget
		}
		if maxM < 1 {
			maxM = 1 // order 1 is always kept: it seeds every solve
		}
	}
	s := &Sweep{
		v:        v,
		alpha:    alpha,
		deferred: deferred,
		perm:     make([]int, n),
		logP:     make([]float64, n),
		vals:     make([]float64, n),
		maxM:     maxM,
		betaTol:  1e-10,
		lastBeta: math.NaN(),
	}
	for i, p := range v.probs {
		s.logP[i] = math.Log(p) // Log(0) = -Inf, matching PRFeLog's sentinel
		if p > s.maxP {
			s.maxP = p
		}
	}
	s.fillVals(alpha)
	for i := range s.perm {
		s.perm[i] = i
	}
	slices.SortFunc(s.perm, func(a, b int) int {
		if s.above(a, b) {
			return -1
		}
		return 1
	})
	if deferred {
		return s // no events: grid steps repair by insertion instead
	}
	s.deltas = make([]float64, maxM)
	nb := n / 16
	if nb < 1 {
		nb = 1
	} else if nb > 1024 {
		nb = 1024
	}
	if width := 1 - alpha; width > 0 && nb > 1 {
		s.bucketInv = 1 / width
	} else {
		nb = 1
	}
	s.bucketBase = alpha
	s.buckets = make([][]sweepEvent, nb)
	if n > 0 {
		s.ensurePowSums(2) // ΔS₁/ΔS₂ seed every crossing solve
	}
	for k := 0; k+1 < n; k++ {
		s.schedule(k, alpha)
	}
	return s
}

// Alpha returns the sweep's current position.
func (s *Sweep) Alpha() float64 { return s.alpha }

// Len returns the number of tuples in the underlying view.
func (s *Sweep) Len() int { return len(s.perm) }

// Crossings returns the number of crossing events applied so far.
func (s *Sweep) Crossings() int { return s.crossings }

// DistinctCrossingTimes returns the number of distinct α values at which
// applied crossings occurred. Simultaneous transpositions (several disjoint
// pairs crossing at one α) change the ranking once, so the number of
// distinct PRFe rankings seen in (α₀, α_now] is DistinctCrossingTimes()+1.
func (s *Sweep) DistinctCrossingTimes() int { return s.distinctTimes }

// above reports whether sorted position a ranks above position b under the
// current s.vals — the exact pdb.RankByValue order (value desc, tuple ID
// asc). Every ordering decision in the engine — the initial sort and both
// certification repairs — goes through this one comparator, so the
// bit-for-bit contract with the reference ranking cannot drift between
// copies. (PRFe log-values are never NaN, so no NaN arm is needed.)
func (s *Sweep) above(a, b int) bool {
	va, vb := s.vals[a], s.vals[b]
	if !exact.Same(va, vb) {
		return va > vb
	}
	return s.v.ids[a] < s.v.ids[b]
}

// fillVals writes the PRFe log-values at alpha into s.vals indexed by sorted
// position. The arithmetic mirrors Prepared.PRFeLog operation for operation
// (same running sum, same factor expression) so the values — and therefore
// any comparison-based ordering — are bit-identical to the reference path.
func (s *Sweep) fillVals(alpha float64) {
	logProd := 0.0
	zeroed := false
	logAlpha := math.Log(alpha)
	for i, pr := range s.v.probs {
		switch {
		case zeroed, pr == 0:
			s.vals[i] = math.Inf(-1)
		default:
			s.vals[i] = logProd + s.logP[i] + logAlpha
		}
		f := 1 - pr + pr*alpha
		if f == 0 {
			zeroed = true
		} else if !zeroed {
			logProd += math.Log(f)
		}
	}
}

// schedule re-tests the adjacency (k, k+1) and pushes its crossing event if
// one lies in (lo, 1). The O(1) prefilter does almost all the work: a pair
// whose upper tuple sits at the larger score position has already crossed
// (monotone ρ) and a pair with p_lower ≤ p_upper has ρ(1) ≤ 1; only genuine
// future crossings reach the root solver.
func (s *Sweep) schedule(k int, lo float64) {
	if k < 0 || k+1 >= len(s.perm) {
		return
	}
	u, w := s.perm[k], s.perm[k+1]
	if u > w {
		return // post-crossing order: ρ monotone, never swaps back
	}
	beta, ok := s.crossingIn(u, w, lo)
	if !ok {
		return
	}
	e := sweepEvent{beta: beta, k: int32(k), left: int32(u), right: int32(w)}
	if b := s.bucketOf(beta); b > s.active {
		s.buckets[b] = append(s.buckets[b], e)
	} else {
		s.heap.push(e)
	}
}

// bucketOf maps a crossing time to its calendar bucket. The cubic
// compression frac³ makes bucket widths shrink like 1/frac² toward α = 1,
// where crossing density piles up (near-tied probabilities separate only
// as α → 1), keeping per-bucket event counts roughly level.
func (s *Sweep) bucketOf(beta float64) int {
	frac := (beta - s.bucketBase) * s.bucketInv
	if frac >= 1 {
		return len(s.buckets) - 1
	}
	b := int(frac * frac * frac * float64(len(s.buckets)))
	if b < 0 {
		b = 0
	}
	if b >= len(s.buckets) {
		b = len(s.buckets) - 1
	}
	return b
}

// closedFormRoot solves the crossing of spans of one or two factors exactly:
// ρ(α)·(p_i/p_j) = ∏f_l is linear (one factor) or quadratic (two) in α.
// Returns (β, true) for an event clamped to fire no earlier than lo,
// (0, false) when the crossing lies beyond hi or cannot occur, and
// (NaN, false) for numerically degenerate cases the iterative solver should
// handle instead.
func closedFormRoot(probs []float64, i, j int, lo, hi float64) (float64, bool) {
	invR := probs[i] / probs[j] // < 1: the caller established log ρ(1) > 0
	var root float64
	if j-i == 1 {
		p := probs[i]
		if p == 0 {
			return 0, false // ρ is constant in α: no interior crossing
		}
		root = 1 - (1-invR)/p
	} else {
		p1, p2 := probs[i], probs[i+1]
		a := p1 * p2
		b := p1*(1-p2) + p2*(1-p1)
		cc := (1-p1)*(1-p2) - invR
		switch {
		case a == 0 && b == 0:
			return 0, false // both factors constant in α
		case a == 0:
			root = -cc / b
		default:
			disc := b*b - 4*a*cc
			if disc < 0 {
				return math.NaN(), false
			}
			// Stable quadratic: b ≥ 0 always, and the increasing branch of
			// ρ on α ≥ 0 crosses at the larger root.
			q := -0.5 * (b + math.Sqrt(disc))
			root = q / a
			if q != 0 {
				if r2 := cc / q; r2 > root {
					root = r2
				}
			}
		}
	}
	if math.IsNaN(root) {
		return math.NaN(), false
	}
	if root > hi {
		return 0, false // crossing at or beyond α = 1: not interior
	}
	if root <= lo {
		return lo, true // numerically already crossed: fire immediately
	}
	return root, true
}

// AdvanceTo processes every crossing event in (Alpha(), target] in time
// order, applying adjacent transpositions and re-testing the pairs each swap
// makes newly adjacent. This is the pure kinetic path — O(log n) per
// crossing, no value evaluation — used by SpectrumSize; RankingAt adds the
// certification pass on top. target must be ≥ Alpha() and ≤ 1; violations
// are reported as errors (a Sweep only moves upward through α).
func (s *Sweep) AdvanceTo(target float64) error {
	if math.IsNaN(target) || target < s.alpha {
		return fmt.Errorf("core: Sweep.AdvanceTo(%v) moves backwards from %v", target, s.alpha)
	}
	if target > 1 {
		return fmt.Errorf("core: Sweep.AdvanceTo(%v) beyond α = 1", target)
	}
	s.advanceBounded(target, math.MaxInt)
	s.alpha = target
	return nil
}

// advanceBounded pops events up to target, applying at most budget of them.
// It reports whether the advance completed; on false the caller owns repair:
// the heap has been cleared and the order is stale, so it must fully re-sort
// and reschedule (the certified grid path does exactly that). The budget is
// the safety valve for pathological event storms — e.g. a grid ending at
// α = 1.0 on data whose probabilities nearly tie, where Θ(n²) crossings
// cluster just below 1 and processing them one by one would cost far more
// than the single O(n log n) re-sort the fallback performs.
func (s *Sweep) advanceBounded(target float64, budget int) bool {
	targetBucket := s.bucketOf(target)
	for {
		for len(s.heap) > 0 && s.heap[0].beta <= target {
			e := s.heap.pop()
			k := int(e.k)
			if k+1 >= len(s.perm) || s.perm[k] != int(e.left) || s.perm[k+1] != int(e.right) {
				continue // stale: adjacency broken since scheduling
			}
			if budget--; budget < 0 {
				s.clearEvents(targetBucket)
				return false
			}
			s.perm[k], s.perm[k+1] = int(e.right), int(e.left)
			s.crossings++
			if !exact.Same(e.beta, s.lastBeta) {
				s.distinctTimes++
				s.lastBeta = e.beta
			}
			// The swapped pair is now post-crossing and inert; only the two
			// adjacencies it disturbed need re-testing, from this event's time.
			s.schedule(k-1, e.beta)
			s.schedule(k+1, e.beta)
		}
		if s.active >= targetBucket {
			return true
		}
		// Merge the next calendar bucket into the (small) active heap. Heap
		// leftovers all have β beyond the merged bucket's range start, so
		// one heapify restores global order.
		s.active++
		if evs := s.buckets[s.active]; len(evs) > 0 {
			s.heap = append(s.heap, evs...)
			s.buckets[s.active] = evs[:0]
			s.heap.heapify()
		}
	}
}

// clearEvents drops every pending event (budget blowout: the caller
// re-sorts and reschedules from scratch) and fast-forwards the calendar.
func (s *Sweep) clearEvents(targetBucket int) {
	s.heap = s.heap[:0]
	for b := s.active + 1; b < len(s.buckets); b++ {
		s.buckets[b] = s.buckets[b][:0]
	}
	s.active = targetBucket
}

// RankingAt advances to alpha and returns the certified full ranking there —
// bit-for-bit the ranking Prepared.RankPRFe(alpha) returns. alpha must be
// ≥ Alpha() and inside (0, 1].
func (s *Sweep) RankingAt(alpha float64) (pdb.Ranking, error) {
	out := make(pdb.Ranking, len(s.perm))
	if err := s.rankingInto(alpha, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TopKAt advances to alpha and returns the certified top-k ranking there.
func (s *Sweep) TopKAt(alpha float64, k int) (pdb.Ranking, error) {
	if k > len(s.perm) {
		k = len(s.perm)
	}
	if err := s.advanceAndCertify(alpha); err != nil {
		return nil, err
	}
	out := make(pdb.Ranking, k)
	for i := 0; i < k; i++ {
		out[i] = s.v.ids[s.perm[i]]
	}
	return out, nil
}

func (s *Sweep) rankingInto(alpha float64, out pdb.Ranking) error {
	if err := s.advanceAndCertify(alpha); err != nil {
		return err
	}
	for k, pos := range s.perm {
		out[k] = s.v.ids[pos]
	}
	return nil
}

// advanceAndCertify is the certified grid step. In event mode it advances
// the queue with a budget and then certifies. In deferred mode there is no
// queue: Theorem 4 guarantees the ranking at the previous grid point and
// the ranking here differ only by the interval's adjacent transpositions,
// so the certification pass itself applies them — amortized O(1) per
// crossing with no root-solving, predicting nothing and observing
// everything.
func (s *Sweep) advanceAndCertify(alpha float64) error {
	if alpha < s.alpha {
		return fmt.Errorf("core: Sweep queried at %v after advancing to %v", alpha, s.alpha)
	}
	if !(alpha > 0 && alpha <= 1) {
		return fmt.Errorf("core: Sweep queried at alpha %v outside (0,1]", alpha)
	}
	if s.deferred {
		s.alpha = alpha
		s.certifyDeferred(alpha)
		return nil
	}
	complete := s.advanceBounded(alpha, 4*len(s.perm)+64)
	s.alpha = alpha
	s.certify(alpha, !complete)
	return nil
}

// certifyDeferred is the deferred-mode grid step: re-evaluate the values at
// alpha and insertion-repair the previous grid point's permutation. The
// move budget is the same safety valve as the event path's: an interval
// packed with Θ(n²) crossings (near-tied probabilities approaching α = 1)
// costs less as one O(n log n) re-sort than as quadratic insertion work.
func (s *Sweep) certifyDeferred(alpha float64) {
	n := len(s.perm)
	if n == 0 {
		return
	}
	s.fillVals(alpha)
	budget := 4*n + 64
	moved := 0
	for k := 1; k < n; k++ {
		p := s.perm[k]
		m := k
		for m > 0 && s.above(p, s.perm[m-1]) {
			s.perm[m] = s.perm[m-1]
			m--
		}
		s.perm[m] = p
		if moved += k - m; moved > budget {
			slices.SortFunc(s.perm, func(a, b int) int {
				if s.above(a, b) {
					return -1
				}
				return 1
			})
			break // crossings counted so far remain a lower bound
		}
	}
	s.crossings += moved
}

// certify re-evaluates the PRFe log-values at alpha and restores the exact
// reference order (value desc, ID asc). With fresh events the permutation is
// already sorted — the insertion pass is a single O(n) scan — and each
// residual float-boundary disagreement or tie costs one move. When the
// event budget blew (rebuild), the order may be arbitrarily stale, so it
// re-sorts outright and reschedules every adjacency.
func (s *Sweep) certify(alpha float64, rebuild bool) {
	n := len(s.perm)
	if n == 0 {
		return
	}
	s.fillVals(alpha)
	if rebuild {
		slices.SortFunc(s.perm, func(a, b int) int {
			if s.above(a, b) {
				return -1
			}
			return 1
		})
		for k := 0; k+1 < n; k++ {
			s.schedule(k, alpha)
		}
		return
	}
	dirtyLo, dirtyHi := n, -1
	for k := 1; k < n; k++ {
		p := s.perm[k]
		m := k
		for m > 0 && s.above(p, s.perm[m-1]) {
			s.perm[m] = s.perm[m-1]
			m--
		}
		if m == k {
			continue
		}
		s.perm[m] = p
		if m < dirtyLo {
			dirtyLo = m
		}
		if k > dirtyHi {
			dirtyHi = k
		}
	}
	if dirtyHi < 0 {
		return // already in reference order: the common case
	}
	// Ranks in [dirtyLo, dirtyHi] shifted, which both changes adjacencies
	// and strands any pending events keyed to the old rank indices (they
	// will pop stale). Re-test the whole dirty span.
	for k := dirtyLo - 1; k <= dirtyHi; k++ {
		s.schedule(k, alpha)
	}
}

// ---------------------------------------------------------------------------
// Crossing-point solver.
// ---------------------------------------------------------------------------

// crossEps is the left end of the crossing search domain: the one-shot
// CrossingPoint contract searches (0, 1) but the evaluator needs α > 0.
const crossEps = 1e-12

// spectrumEps is where the exact spectrum sweep starts: close enough to 0
// that the initial order is the α→0⁺ (rank-1 probability) order for any
// realistically separated dataset.
const spectrumEps = 1e-9

// solveCtx is the per-solve state of the crossing root finder: the span,
// the hoisted α-independent terms (log(p_j)−log(p_i) and the raw ratio
// p_j/p_i), and the chosen evaluation strategy. It lives on the stack — the
// solver allocates nothing per event.
type solveCtx struct {
	i, j    int
	logDiff float64
	ratio   float64 // p_j/p_i, for the log-free product evaluator
	mode    uint8
	m       int // series order when mode == solveSeries
}

// Evaluation strategies, cheapest first for the span shapes they cover.
const (
	// solveProduct evaluates ρ−1 = (p_j/p_i)·∏f_l − 1 directly — no log
	// calls at all. The workhorse: most adjacencies that cross sit close
	// together in score order, and for short spans the product cannot
	// underflow, so the transcendental overhead of the log form (one
	// math.Log per evaluation) is pure waste.
	solveProduct uint8 = iota
	// solveSeries evaluates log ρ via prefix power sums in O(m), span-free;
	// picked for long spans at large α where it converges fast.
	solveSeries
	// solveLog is the renormalized-product log evaluator — the fully
	// general fallback for long spans the series can't cover.
	solveLog
)

// crossingIn finds the α ∈ (lo, 1) at which the tuples at sorted
// positions i < j swap PRFe order, given that position i currently ranks
// above j. Monotonicity of log ρ makes existence an O(1) test — log ρ(1) =
// log p_j − log p_i must be positive — after which a bracketed
// secant/Newton iteration locates the root, seeded by the closed-form
// first-order root 1 − (log p_j − log p_i)/ΣΔp, which lands within a few
// percent of the true crossing for typical near-tied pairs and cuts the
// solve to a handful of evaluations. If the pair has numerically already
// crossed (log ρ(lo) ≥ 0, possible when certification re-ordered a float
// boundary), the event fires immediately at lo.
func (s *Sweep) crossingIn(i, j int, lo float64) (float64, bool) {
	logDiff := s.logP[j] - s.logP[i]
	if !(logDiff > 0) { // covers p_j ≤ p_i, either probability zero, and ties
		return 0, false
	}
	if lo < crossEps {
		lo = crossEps
	}
	// Spans of one or two factors — the bulk of real crossings, since pairs
	// that swap adjacent ranks tend to sit adjacent in score order too —
	// have closed-form roots: ρ is linear (resp. quadratic) in α there, so
	// the solve is a couple of flops with no iteration at all.
	if j-i <= 2 {
		if beta, ok := closedFormRoot(s.v.probs, i, j, lo, 1); ok {
			return beta, true
		} else if !math.IsNaN(beta) {
			return 0, false
		}
		// NaN signals a degenerate case; fall through to the iteration.
	}
	c := s.prepSolve(i, j, logDiff, lo)
	glo, _ := s.evalG(&c, lo, false)
	if glo >= 0 {
		return lo, true
	}
	hi := 1.0
	// Second-order seed: log ρ ≈ logDiff − σ·ΔS₁ − σ²·ΔS₂/2 (σ = 1−α)
	// vanishes at σ* = (√(ΔS₁²+2·ΔS₂·logDiff) − ΔS₁)/ΔS₂, with the ΔS from
	// the always-built order-1/2 prefix sums. The cubic-order error puts the
	// seed within ~|σ·p|³ of the root, so the secant refinement below needs
	// only a couple of evaluations.
	seed := 0.5 * (lo + hi)
	ds1 := s.powSums[0][j] - s.powSums[0][i]
	ds2 := s.powSums[1][j] - s.powSums[1][i]
	if ds2 > 0 {
		if sigma := (math.Sqrt(ds1*ds1+2*ds2*logDiff) - ds1) / ds2; sigma > 0 {
			if x := 1 - sigma; x > lo && x < hi {
				seed = x
			}
		}
	} else if ds1 > 0 {
		if x := 1 - logDiff/ds1; x > lo && x < hi {
			seed = x
		}
	}
	if c.mode == solveProduct {
		return s.productRoot(&c, lo, hi, glo, seed), true
	}
	return s.newton(&c, lo, hi, seed), true
}

// productRoot solves ρ(β)−1 = 0 on the bracket with derivative-free secant
// steps over the inlined product evaluation — the hot path: the spans of
// adjacent pairs that actually cross are short (the ranking stays near the
// score order until α is large), so each evaluation is a handful of
// multiplies and the whole solve runs without a single division, log, or
// indirect call.
func (s *Sweep) productRoot(c *solveCtx, lo, hi, flo, seed float64) float64 {
	probs := s.v.probs
	i, j, ratio := c.i, c.j, c.ratio
	x0, f0 := lo, flo
	x1 := seed
	for iter := 0; iter < 60; iter++ {
		prod := 1.0
		for l := i; l < j; l++ {
			p := probs[l]
			prod *= 1 - p + p*x1
		}
		var f1 float64
		if prod < 1e-280 {
			f1, _ = logRhoDirect(probs, i, j, c.logDiff, x1, false)
		} else {
			f1 = ratio*prod - 1
		}
		if f1 == 0 {
			return x1
		}
		if f1 < 0 {
			lo = x1
		} else {
			hi = x1
		}
		if hi-lo <= 1e-12 {
			break
		}
		nx := 0.5 * (lo + hi)
		if !exact.Same(f1, f0) {
			if sx := x1 - f1*(x1-x0)/(f1-f0); sx > lo && sx < hi {
				nx = sx
			}
		}
		if math.Abs(nx-x1) <= s.betaTol {
			return nx // the secant error tracks the step size
		}
		x0, f0 = x1, f1
		x1 = nx
	}
	return 0.5 * (lo + hi)
}

const (
	seriesMinSpan   = 24         // below this the product pass beats the series
	seriesMaxM      = 48         // prefix power sums kept at most to p^48
	seriesMemBudget = 48_000_000 // bytes of power-sum tables a sweep may grow
	seriesTol       = 1e-9       // absolute truncation tolerance for g
	productMaxSpan  = 256        // longest span the product form attempts
)

// prepSolve picks the cheapest sound evaluation strategy for the span
// [i, j). Short spans take the log-free product form. Long spans prefer the
// prefix-power-sum series — O(M) independent of the span — which converges
// fast exactly where long spans occur: rankings at large α interleave
// tuples far apart in score order (the probability order is score-blind),
// and there x_l = p_l(1−α) is small. Long spans the series can't cover fall
// back to the product form up to a larger cutoff and finally to the
// renormalized log evaluator. The seriesTol truncation (≤ 1e-9 on g)
// perturbs event times by far less than the certification pass absorbs, and
// far less than the spacing of distinguishable crossings.
func (s *Sweep) prepSolve(i, j int, logDiff, lo float64) solveCtx {
	c := solveCtx{i: i, j: j, logDiff: logDiff, ratio: s.v.probs[j] / s.v.probs[i]}
	dist := j - i
	if dist < seriesMinSpan {
		return c // solveProduct
	}
	xmax := s.maxP * (1 - lo)
	if m, ok := seriesOrder(xmax, dist, s.maxM); ok {
		s.ensurePowSums(m)
		for t := 0; t < m; t++ {
			sums := s.powSums[t]
			s.deltas[t] = sums[j] - sums[i]
		}
		c.mode, c.m = solveSeries, m
		return c
	}
	if dist <= productMaxSpan {
		return c // solveProduct, with per-eval underflow fallback
	}
	c.mode = solveLog
	return c
}

// seriesOrder returns the number of series terms needed to evaluate g within
// seriesTol over a span of dist tuples with x ≤ xmax, or ok=false when maxM
// terms can't reach the tolerance (caller falls back to the direct pass).
// Truncation after M terms is bounded by dist·xmax^(M+1)/((M+1)(1−xmax)).
func seriesOrder(xmax float64, dist, maxM int) (int, bool) {
	if !(xmax > 0) {
		return 1, true
	}
	if xmax >= 0.7 {
		return 0, false
	}
	bound := float64(dist) * xmax / (1 - xmax)
	for m := 1; m <= maxM; m++ {
		bound *= xmax
		if bound/float64(m+1) <= seriesTol {
			return m, true
		}
	}
	return 0, false
}

// evalG evaluates a sign-equivalent form of g(α) = log ρ(α) — and, when
// asked, its derivative — under the solve's chosen strategy. All three forms
// are increasing with the same root and sign, which is what the safeguarded
// Newton needs; their absolute scales differ (ρ−1 versus log ρ), which it
// tolerates.
//
// The product form returns ρ(α)−1 with zero transcendental calls. The
// series form uses log(1−x) = −Σ_m x^m/m with x_l = p_l(1−α):
//
//	g(α)  = logDiff − Σ_{m=1..M} ((1−α)^m / m) · ΔS_m
//	g'(α) =           Σ_{m=1..M} (1−α)^(m−1)  · ΔS_m
//
// where ΔS_m = Σ_{l∈[i,j)} p_l^m was loaded from two prefix-sum lookups at
// prepSolve time — O(M) per evaluation regardless of the span. In the rare
// case the product underflows (a long span packed with near-one
// probabilities at tiny α), the evaluation falls back to the log form: the
// sign stays consistent, and the Newton bracket absorbs the scale switch.
func (s *Sweep) evalG(c *solveCtx, alpha float64, needDeriv bool) (float64, float64) {
	switch c.mode {
	case solveProduct:
		probs := s.v.probs
		prod := 1.0
		sum := 0.0
		if needDeriv {
			for l := c.i; l < c.j; l++ {
				p := probs[l]
				f := 1 - p + p*alpha
				prod *= f
				sum += p / f
			}
		} else {
			for l := c.i; l < c.j; l++ {
				p := probs[l]
				prod *= 1 - p + p*alpha
			}
		}
		if prod < 1e-280 {
			return logRhoDirect(probs, c.i, c.j, c.logDiff, alpha, needDeriv)
		}
		rp := c.ratio * prod
		return rp - 1, rp * sum
	case solveSeries:
		sigma := 1 - alpha
		g := c.logDiff
		dg := 0.0
		pow := 1.0 // sigma^t
		for t := 0; t < c.m; t++ {
			d := s.deltas[t]
			dg += pow * d
			pow *= sigma
			g -= pow * d / float64(t+1)
		}
		return g, dg
	default:
		return logRhoDirect(s.v.probs, c.i, c.j, c.logDiff, alpha, needDeriv)
	}
}

// ensurePowSums extends the prefix power sums up to order m (powSums[m-1]
// holds Σ p^m). Each new order costs one O(n) pass.
func (s *Sweep) ensurePowSums(m int) {
	n := len(s.logP)
	if s.powCur == nil {
		s.powCur = make([]float64, n)
		for i := range s.powCur {
			s.powCur[i] = 1
		}
	}
	for len(s.powSums) < m {
		probs := s.v.probs
		sums := make([]float64, n+1)
		var acc float64
		for i := 0; i < n; i++ {
			s.powCur[i] *= probs[i]
			acc += s.powCur[i]
			sums[i+1] = acc
		}
		s.powSums = append(s.powSums, sums)
	}
}

// logRhoDirect computes g(α) = logDiff + Σ_{l∈[i,j)} log(1−p_l+p_l·α) and
// optionally g'(α) = Σ p_l/f_l in one pass. The α-independent logDiff is
// hoisted by the caller, and the log-sum is carried as a renormalized
// running product — one math.Log call per ~10³ factors instead of one per
// factor, which is what makes each Newton iteration a cheap incremental
// pass (the factors are all in [0, 1] for α ≤ 1, so the product only
// shrinks and a single underflow guard suffices).
func logRhoDirect(probs []float64, i, j int, logDiff, alpha float64, needDeriv bool) (float64, float64) {
	g := logDiff
	dg := 0.0
	prod := 1.0
	if needDeriv {
		for l := i; l < j; l++ {
			p := probs[l]
			f := 1 - p + p*alpha
			prod *= f
			dg += p / f
			if prod < 1e-280 {
				g += math.Log(prod)
				prod = 1
			}
		}
	} else {
		for l := i; l < j; l++ {
			p := probs[l]
			prod *= 1 - p + p*alpha
			if prod < 1e-280 {
				g += math.Log(prod)
				prod = 1
			}
		}
	}
	return g + math.Log(prod), dg
}

// newton solves g(β) = 0 for β ∈ (lo, hi) given g increasing with
// g(lo) < 0 < g(hi). Newton steps are taken whenever they stay inside the
// shrinking bisection bracket, so convergence is quadratic in the typical
// case and never worse than bisection. The 1e-12 bracket tolerance is ample:
// event times feed grid-interval assignment and distinct-time counting, and
// the certification pass absorbs any residual boundary fuzz.
func (s *Sweep) newton(c *solveCtx, lo, hi, seed float64) float64 {
	x := seed
	for iter := 0; iter < 80 && hi-lo > 1e-12; iter++ {
		g, dg := s.evalG(c, x, true)
		if g == 0 {
			return x
		}
		if g < 0 {
			lo = x
		} else {
			hi = x
		}
		if dg > 0 {
			if nx := x - g/dg; nx > lo && nx < hi {
				// A sub-tolerance step means x has converged even while the
				// far bracket side is still distant — stop here rather than
				// creeping the near side by ulps for the remaining budget.
				if math.Abs(nx-x) <= s.betaTol {
					return nx
				}
				x = nx
				continue
			}
		}
		x = 0.5 * (lo + hi)
	}
	return 0.5 * (lo + hi)
}

// ---------------------------------------------------------------------------
// Grid sweeps and the exact spectrum on a Prepared view.
// ---------------------------------------------------------------------------

// gridForSweep reports whether alphas is a strictly increasing grid inside
// (0, 1] — the domain Theorem 4's kinetic structure covers.
func gridForSweep(alphas []float64) bool {
	if len(alphas) == 0 || !(alphas[0] > 0) || alphas[len(alphas)-1] > 1 {
		return false
	}
	for i := 1; i < len(alphas); i++ {
		if !(alphas[i] > alphas[i-1]) {
			return false
		}
	}
	return true
}

// errSweepGrid reports a batch handed to a sweep kernel that is not a
// strictly increasing α grid inside (0, 1] — the Theorem 4 domain.
// QueryRankPRFeBatch is the forgiving dispatcher that falls back to the
// parallel per-α path instead of erroring.
var errSweepGrid = errors.New("core: kinetic sweep needs a strictly increasing α grid in (0,1]")

// RankPRFeSweep computes the full PRFe ranking at every point of a strictly
// increasing α grid in (0, 1] with one kinetic sweep: sort once at
// alphas[0], then advance by crossing events. out[a] is bit-for-bit
// RankPRFe(alphas[a]). The sweep is serial along the grid, so cancellation
// is honored between grid points.
func (v *Prepared) RankPRFeSweep(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	if !gridForSweep(alphas) {
		return nil, errSweepGrid
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx normalization: Background is the documented nil fallback
	}
	out := make([]pdb.Ranking, len(alphas))
	s := v.newSweep(alphas[0], true)
	n := v.Len()
	for a, alpha := range alphas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[a] = make(pdb.Ranking, n)
		if err := s.rankingInto(alpha, out[a]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TopKPRFeSweep answers PRFe top-k at every point of a strictly increasing
// α grid in (0, 1] with one kinetic sweep. out[a] is bit-for-bit
// RankPRFe(alphas[a]).TopK(k). Cancellation is honored between grid points.
func (v *Prepared) TopKPRFeSweep(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	if !gridForSweep(alphas) {
		return nil, errSweepGrid
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx normalization: Background is the documented nil fallback
	}
	out := make([]pdb.Ranking, len(alphas))
	s := v.newSweep(alphas[0], true)
	for a, alpha := range alphas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		top, err := s.TopKAt(alpha, k)
		if err != nil {
			return nil, err
		}
		out[a] = top
	}
	return out, nil
}

// SpectrumSize counts the distinct PRFe rankings the view passes through as
// α sweeps (0, 1) — exactly, by running the kinetic sweep across the whole
// interval and counting distinct crossing times, rather than sampling a grid
// and missing every ranking that lives between two grid points (use
// SpectrumSizeGrid for the sampled variant). Theorem 4 bounds the answer by
// 1 + C(n,2); the cost is Θ((n + K) log n) for K actual crossings, and K
// itself can reach Θ(n²) — on datasets whose probabilities nearly tie the
// crossings cluster just below α = 1, so the exact count is an inherently
// heavy query at scale. The sweep starts at α = 1e-9; rankings that exist
// only below that are not distinguished.
func (v *Prepared) SpectrumSize() int {
	if v.Len() <= 1 {
		return 1
	}
	s := v.NewSweep(spectrumEps)
	pdb.MustNoErr(s.AdvanceTo(1)) // 1 ≥ spectrumEps and ≤ 1: cannot fail
	return 1 + s.DistinctCrossingTimes()
}

// SpectrumSizeGrid counts distinct PRFe rankings on the uniform α grid
// {1/g, 2/g, …, 1} — the sampled spectrum, kept for comparison with the
// exact SpectrumSize. It rides the kinetic sweep (one sort plus events)
// instead of re-ranking every grid point, and its counts are identical to
// ranking each grid point independently.
func (v *Prepared) SpectrumSizeGrid(gridSize int) int {
	if gridSize < 2 {
		gridSize = 2
	}
	n := v.Len()
	if n == 0 {
		return 1
	}
	s := v.newSweep(1/float64(gridSize), true)
	cur := make(pdb.Ranking, n)
	prev := make(pdb.Ranking, n)
	count := 0
	for a := 1; a <= gridSize; a++ {
		pdb.MustNoErr(s.rankingInto(float64(a)/float64(gridSize), cur)) // uniform grid in (0,1]: cannot fail
		if a == 1 || !sameRanking(prev, cur) {
			count++
			prev, cur = cur, prev
		}
	}
	return count
}
