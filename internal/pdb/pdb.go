// Package pdb defines the base probabilistic database model used throughout
// the repository: tuples with scores and existence probabilities, datasets,
// possible worlds, and exact/Monte-Carlo possible-world machinery for
// tuple-independent relations.
//
// The model follows Section 3.1 of Li, Saha, Deshpande, "A Unified Approach
// to Ranking in Probabilistic Databases" (VLDB 2009). A probabilistic
// relation D_T is a set of tuples; each tuple t carries an existence
// probability Pr(t) and a score score(t). A possible world is a subset of
// tuples; in the tuple-independent model the probability of a world is the
// product of the included tuples' probabilities times the excluded tuples'
// complement probabilities. Correlated models (and/xor trees, Markov
// networks) live in sibling packages and reuse these base types.
package pdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// TupleID identifies a tuple within a Dataset. IDs are dense indices assigned
// by the dataset (0..n-1) so that rank algorithms can use them as slice
// offsets; they are stable across sorting because sorting reorders the slice
// but never rewrites the IDs.
type TupleID int

// Tuple is a single uncertain tuple: it exists with probability Prob and, if
// it exists, has the deterministic score Score. Higher scores rank higher.
type Tuple struct {
	// ID is the dataset-assigned identity of the tuple.
	ID TupleID
	// Score is the ranking score of the tuple (deterministic in the base
	// model; see core.UncertainScores for discrete score distributions).
	Score float64
	// Prob is the existence probability, in [0, 1].
	Prob float64
}

// Dataset is an ordered collection of tuples. Most ranking algorithms require
// the dataset to be sorted by non-increasing score; SortByScore establishes
// and Sorted reports that invariant.
type Dataset struct {
	tuples []Tuple
	sorted bool
	// mu guards byID: the index is built lazily on the first ByID call and
	// discarded whenever the order changes, and ByID must stay safe for
	// concurrent readers (it was a pure read before the index existed).
	mu   sync.Mutex
	byID map[TupleID]int
}

// ErrEmptyDataset is returned by operations that require at least one tuple.
var ErrEmptyDataset = errors.New("pdb: empty dataset")

// NewDataset builds a dataset from (score, probability) pairs, assigning IDs
// 0..n-1 in input order. It returns an error if any probability lies outside
// [0,1] or any value is NaN/Inf.
func NewDataset(scores, probs []float64) (*Dataset, error) {
	if err := ValidateArrays(scores, probs); err != nil {
		return nil, err
	}
	tuples := make([]Tuple, len(scores))
	for i := range scores {
		tuples[i] = Tuple{ID: TupleID(i), Score: scores[i], Prob: probs[i]}
	}
	return &Dataset{tuples: tuples}, nil
}

// ValidateArrays checks parallel score/probability arrays exactly as
// NewDataset does — same rules, same error texts, tuple i being ID i —
// without building the tuples.
func ValidateArrays(scores, probs []float64) error {
	if len(scores) != len(probs) {
		return fmt.Errorf("pdb: %d scores but %d probabilities", len(scores), len(probs))
	}
	for i := range scores {
		if err := CheckTuple(TupleID(i), scores[i], probs[i]); err != nil {
			return err
		}
	}
	return nil
}

// FromTuples builds a dataset from pre-constructed tuples, reassigning IDs
// 0..n-1 in input order.
func FromTuples(ts []Tuple) (*Dataset, error) {
	tuples := make([]Tuple, len(ts))
	copy(tuples, ts)
	for i := range tuples {
		tuples[i].ID = TupleID(i)
	}
	d := &Dataset{tuples: tuples}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustDataset is NewDataset for tests and examples; it panics on error.
func MustDataset(scores, probs []float64) *Dataset {
	d, err := NewDataset(scores, probs)
	if err != nil {
		panic(err)
	}
	return d
}

// Validate checks every tuple for a probability in [0,1] and finite score.
func (d *Dataset) Validate() error {
	for _, t := range d.tuples {
		if err := CheckTuple(t.ID, t.Score, t.Prob); err != nil {
			return err
		}
	}
	return nil
}

// CheckTuple checks one tuple by the rules every constructor applies: a
// probability in [0, 1] and a finite score. The error texts are the ones
// NewDataset and ValidateArrays report.
func CheckTuple(id TupleID, score, prob float64) error {
	if math.IsNaN(prob) || prob < 0 || prob > 1 {
		return fmt.Errorf("pdb: tuple %d has invalid probability %v", id, prob)
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return fmt.Errorf("pdb: tuple %d has invalid score %v", id, score)
	}
	return nil
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return len(d.tuples) }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (d *Dataset) Tuples() []Tuple { return d.tuples }

// Tuple returns the i-th tuple in the dataset's current order.
func (d *Dataset) Tuple(i int) Tuple { return d.tuples[i] }

// ByID returns the tuple with the given ID regardless of current order.
// The first call after a reorder builds an ID→position index, so lookups are
// amortized O(1). Safe for concurrent use as long as no goroutine is
// mutating the dataset's order at the same time (the same contract as every
// other read method).
func (d *Dataset) ByID(id TupleID) (Tuple, bool) {
	d.mu.Lock()
	if d.byID == nil {
		d.byID = make(map[TupleID]int, len(d.tuples))
		for i, t := range d.tuples {
			d.byID[t.ID] = i
		}
	}
	m := d.byID
	d.mu.Unlock()
	i, ok := m[id]
	if !ok {
		return Tuple{}, false
	}
	return d.tuples[i], true
}

// SortByScore sorts the tuples in non-increasing score order, breaking ties
// by ID so that the order is deterministic. All generating-function
// algorithms assume this order.
func (d *Dataset) SortByScore() {
	sort.SliceStable(d.tuples, func(i, j int) bool {
		if d.tuples[i].Score != d.tuples[j].Score {
			return d.tuples[i].Score > d.tuples[j].Score
		}
		return d.tuples[i].ID < d.tuples[j].ID
	})
	d.sorted = true
	d.mu.Lock()
	d.byID = nil // positions changed; rebuild lazily on next ByID
	d.mu.Unlock()
}

// Sorted reports whether SortByScore has been called since the last mutation.
func (d *Dataset) Sorted() bool { return d.sorted }

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	tuples := make([]Tuple, len(d.tuples))
	copy(tuples, d.tuples)
	return &Dataset{tuples: tuples, sorted: d.sorted}
}

// Subset returns a new dataset containing the tuples at the given positions
// of the current order, with fresh dense IDs 0..len(positions)-1 (every
// ranking algorithm indexes by TupleID, so IDs must stay dense). The second
// return value maps each new ID back to the original tuple's ID.
func (d *Dataset) Subset(positions []int) (*Dataset, []TupleID) {
	tuples := make([]Tuple, 0, len(positions))
	orig := make([]TupleID, 0, len(positions))
	for _, p := range positions {
		t := d.tuples[p]
		orig = append(orig, t.ID)
		t.ID = TupleID(len(tuples))
		tuples = append(tuples, t)
	}
	return &Dataset{tuples: tuples}, orig
}

// ExpectedWorldSize returns C = Σ p_i, the expected number of tuples in a
// random possible world (used by the expected-rank baseline).
func (d *Dataset) ExpectedWorldSize() float64 {
	var c float64
	for _, t := range d.tuples {
		c += t.Prob
	}
	return c
}

// World is one possible world: the set of present tuples (in non-increasing
// score order) together with the world's probability.
type World struct {
	// Present lists the IDs of the tuples in the world sorted by
	// non-increasing score (ties by ID), i.e. ranked order.
	Present []TupleID
	// Prob is the probability of this world.
	Prob float64
}

// Rank returns the 1-based rank of tuple id inside the world, or 0 if the
// tuple is absent (the paper writes r_pw(t) = ∞ for absent tuples; 0 is this
// package's sentinel for "absent").
func (w World) Rank(id TupleID) int {
	for i, t := range w.Present {
		if t == id {
			return i + 1
		}
	}
	return 0
}

// EnumerateWorlds enumerates all 2^n possible worlds of a tuple-independent
// dataset. It refuses datasets with more than MaxEnumerate tuples. The
// returned worlds have Present sorted in ranked (score) order.
func EnumerateWorlds(d *Dataset) ([]World, error) {
	n := d.Len()
	if n > MaxEnumerate {
		return nil, fmt.Errorf("pdb: refusing to enumerate 2^%d worlds (max %d tuples)", n, MaxEnumerate)
	}
	ordered := d.Clone()
	ordered.SortByScore()
	ts := ordered.Tuples()
	worlds := make([]World, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		prob := 1.0
		var present []TupleID
		for i, t := range ts {
			if mask&(1<<i) != 0 {
				prob *= t.Prob
				present = append(present, t.ID)
			} else {
				prob *= 1 - t.Prob
			}
		}
		if prob > 0 {
			worlds = append(worlds, World{Present: present, Prob: prob})
		}
	}
	return worlds, nil
}

// MaxEnumerate bounds exact world enumeration (2^MaxEnumerate worlds).
const MaxEnumerate = 22

// SampleWorld draws one possible world from a tuple-independent dataset.
// The Present slice is in ranked (score) order provided the dataset is
// sorted; callers should SortByScore first.
func SampleWorld(d *Dataset, rng *rand.Rand) World {
	present := make([]TupleID, 0, d.Len())
	for _, t := range d.tuples {
		if rng.Float64() < t.Prob {
			present = append(present, t.ID)
		}
	}
	return World{Present: present, Prob: math.NaN()}
}

// RankDistribution is the positional-probability matrix of a dataset:
// Dist[t][j] = Pr(r(t) = j+1), for tuple ID t and 0-based position j.
// Rows may be shorter than n when trailing probabilities are exactly zero.
type RankDistribution struct {
	// Dist is indexed by TupleID then by 0-based rank.
	Dist [][]float64
}

// At returns Pr(r(id) = rank) for a 1-based rank.
func (rd *RankDistribution) At(id TupleID, rank int) float64 {
	row := rd.Dist[id]
	if rank < 1 || rank > len(row) {
		return 0
	}
	return row[rank-1]
}

// PresenceProb returns Σ_j Pr(r(id)=j) which must equal Pr(id exists).
func (rd *RankDistribution) PresenceProb(id TupleID) float64 {
	var s float64
	for _, p := range rd.Dist[id] {
		s += p
	}
	return s
}

// RankDistributionFromWorlds computes exact positional probabilities by
// summing over an explicit list of worlds. n is the number of tuples (IDs
// must be < n). This is the brute-force gold standard the generating-function
// algorithms are tested against.
func RankDistributionFromWorlds(worlds []World, n int) *RankDistribution {
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for _, w := range worlds {
		for pos, id := range w.Present {
			dist[id][pos] += w.Prob
		}
	}
	return &RankDistribution{Dist: dist}
}

// MedianRankSentinel returns the value MedianRankFromDistribution assigns a
// tuple that is absent from a majority of worlds: n+1, one past the largest
// finite rank, so the sentinel is finite (JSON-encodable) and unambiguous.
func MedianRankSentinel(n int) float64 { return float64(n + 1) }

// MedianRankFromDistribution computes the consensus median rank per tuple
// from a positional-probability matrix: the smallest j ≥ 1 with
// Pr(r(t) ≤ j) ≥ 1/2 under the absent-tuples-rank-∞ convention, or
// MedianRankSentinel(n) when the cumulative presence mass never reaches 1/2
// (the tuple is absent from a majority of worlds). n is the number of
// tuples; every correlated backend and the enumeration oracle feed their own
// matrices through this one fold.
func MedianRankFromDistribution(rd *RankDistribution, n int) []float64 {
	out := make([]float64, n)
	for id := 0; id < n; id++ {
		out[id] = MedianRankSentinel(n)
		cum := 0.0
		for j, p := range rd.Dist[id] {
			cum += p
			if cum >= 0.5 {
				out[id] = float64(j + 1)
				break
			}
		}
	}
	return out
}

// TopKFromWorld returns the first k present tuples of a world (fewer if the
// world is smaller).
func TopKFromWorld(w World, k int) []TupleID {
	if k > len(w.Present) {
		k = len(w.Present)
	}
	out := make([]TupleID, k)
	copy(out, w.Present[:k])
	return out
}

// ScoreMap returns a map from tuple ID to score, handy for metrics that need
// score lookups after the dataset has been re-sorted.
func (d *Dataset) ScoreMap() map[TupleID]float64 {
	m := make(map[TupleID]float64, d.Len())
	for _, t := range d.tuples {
		m[t.ID] = t.Score
	}
	return m
}

// ProbMap returns a map from tuple ID to existence probability.
func (d *Dataset) ProbMap() map[TupleID]float64 {
	m := make(map[TupleID]float64, d.Len())
	for _, t := range d.tuples {
		m[t.ID] = t.Prob
	}
	return m
}
