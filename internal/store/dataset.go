package store

// Dataset is the neutral, storage-ready form of one dataset: flat arrays
// (plus a tree spec for the structured kinds) in the exact canonical order
// the engine's prepared views use. Parse produces one from the same CSV and
// JSON formats the serving layer has always accepted; Encode/Decode move it
// to and from segment bytes; Engine builds the prepared ranking engine.
// The serving layer's loaders delegate here, so a dataset imported into a
// store and one parsed at startup go through identical validation.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// Kinds accepted by Parse.
const (
	KindIndependent = "ind"   // CSV: score,probability
	KindXRelation   = "xrel"  // CSV: score,probability,group
	KindTree        = "tree"  // JSON: nested and/xor spec
	KindChain       = "chain" // JSON: {"scores": [...], "pairs": [...]}
)

// Kinds lists every dataset kind, in the order the docs present them.
var Kinds = []string{KindIndependent, KindXRelation, KindTree, KindChain}

// Dataset is one parsed dataset. Which fields are set depends on Kind:
//
//	ind    IDs, Scores, Probs — tuples in prepared (score desc, ID asc)
//	       order, IDs the original 0-based input positions
//	xrel   Scores, Probs, Groups — leaves flattened group by group in
//	       XTuples leaf-ID order; Groups is the dense, non-decreasing
//	       x-tuple index per leaf
//	tree   Tree — the and/xor spec; leaf IDs are preorder positions
//	chain  Scores, Pairs — n variable scores and n−1 pairwise joints
type Dataset struct {
	Kind   string
	IDs    []pdb.TupleID
	Scores []float64
	Probs  []float64
	Groups []uint32
	Tree   *TreeSpec
	Pairs  [][2][2]float64
}

// len returns the tuple count (leaves for trees, variables for chains).
func (ds *Dataset) len() int {
	if ds.Kind == KindTree {
		return ds.Tree.leaves()
	}
	return len(ds.Scores)
}

// Len reports the number of tuples in the dataset.
func (ds *Dataset) Len() int { return ds.len() }

// model is the backend model of a structured dataset, as validate builds
// it: the and/xor tree of an x-relation or tree, or the chain of a chain.
// An independent dataset has none (the zero model).
type model struct {
	tree  *andxor.Tree
	chain *junction.Chain
}

// engine prepares the model for ranking.
func (m model) engine() *engine.Engine {
	if m.chain != nil {
		return engine.New(junction.PrepareChain(m.chain))
	}
	return engine.New(andxor.PrepareTree(m.tree))
}

// validate checks the canonical invariants Encode requires and Decode
// guarantees. It validates all the way down to model semantics by building
// the backend model, which it returns, so a dataset that validates is a
// dataset Engine can serve — decode success implies open success — and
// OpenEngine serves the model validate built. tree, when non-nil, is the
// and/xor tree parseXRelationCSV already built from an x-relation's
// arrays: validate checks the arrays and takes it instead of building it
// again.
func (ds *Dataset) validate(tree *andxor.Tree) (model, error) {
	n := ds.len()
	if n < 1 {
		return model{}, fmt.Errorf("%w: empty dataset", ErrCorrupt)
	}
	if n > maxTuples {
		return model{}, fmt.Errorf("%w: %d tuples exceeds the format cap %d", ErrCorrupt, n, maxTuples)
	}
	var m model
	var err error
	switch ds.Kind {
	case KindIndependent:
		if err := core.CheckSorted(ds.IDs, ds.Scores, ds.Probs); err != nil {
			return model{}, fmt.Errorf("%w: independent arrays: %w", ErrCorrupt, err)
		}
	case KindXRelation:
		if len(ds.Probs) != n || len(ds.Groups) != n {
			return model{}, fmt.Errorf("%w: x-relation arrays disagree on length", ErrCorrupt)
		}
		if ds.Groups[0] != 0 {
			return model{}, fmt.Errorf("%w: x-relation groups must start at 0", ErrCorrupt)
		}
		for i := 1; i < n; i++ {
			if g, prev := ds.Groups[i], ds.Groups[i-1]; g != prev && g != prev+1 {
				return model{}, fmt.Errorf("%w: x-relation group indices must be dense and non-decreasing", ErrCorrupt)
			}
		}
		if m.tree = tree; m.tree == nil {
			if m.tree, err = andxor.XTuples(ds.xgroups()); err != nil {
				return model{}, fmt.Errorf("%w: x-relation: %w", ErrCorrupt, err)
			}
		}
	case KindTree:
		if m.tree, err = ds.tree(); err != nil {
			return model{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	case KindChain:
		if len(ds.Pairs) != n-1 {
			return model{}, fmt.Errorf("%w: chain has %d scores but %d pairwise joints", ErrCorrupt, n, len(ds.Pairs))
		}
		if m.chain, err = junction.NewChain(ds.Scores, ds.Pairs); err != nil {
			return model{}, fmt.Errorf("%w: chain: %w", ErrCorrupt, err)
		}
	default:
		return model{}, fmt.Errorf("%w: unknown dataset kind %q", ErrCorrupt, ds.Kind)
	}
	return m, nil
}

// xgroups reassembles the [][]Alternative grouping from the flattened
// x-relation arrays.
func (ds *Dataset) xgroups() [][]andxor.Alternative {
	var groups [][]andxor.Alternative
	for i := range ds.Scores {
		g := int(ds.Groups[i])
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], andxor.Alternative{Score: ds.Scores[i], Prob: ds.Probs[i]})
	}
	return groups
}

// tree builds (and validates) the and/xor tree for a tree-kind dataset.
func (ds *Dataset) tree() (*andxor.Tree, error) {
	root, err := ds.Tree.node("root")
	if err != nil {
		return nil, err
	}
	return andxor.New(root)
}

// Engine builds a prepared ranking engine for the dataset. For independent
// tuples this is the sequential-scan fast path: the arrays are already in
// prepared order, so core.FromSorted admits them without re-sorting.
func (ds *Dataset) Engine() (*engine.Engine, error) {
	var m model
	var err error
	switch ds.Kind {
	case KindIndependent:
		v, err := core.FromSorted(ds.IDs, ds.Scores, ds.Probs)
		if err != nil {
			return nil, err
		}
		return engine.New(v), nil
	case KindXRelation:
		m.tree, err = andxor.XTuples(ds.xgroups())
	case KindTree:
		m.tree, err = ds.tree()
	case KindChain:
		m.chain, err = junction.NewChain(ds.Scores, ds.Pairs)
	default:
		return nil, fmt.Errorf("store: unknown dataset kind %q", ds.Kind)
	}
	if err != nil {
		return nil, err
	}
	return m.engine(), nil
}

// Parse parses one dataset of the given kind from a reader into its
// canonical storage form.
func Parse(kind string, r io.Reader) (*Dataset, error) {
	switch kind {
	case KindIndependent:
		return ParseIndependentCSV(r)
	case KindXRelation:
		return ParseXRelationCSV(r)
	case KindTree:
		return ParseTreeJSON(r)
	case KindChain:
		return ParseChainJSON(r)
	default:
		return nil, fmt.Errorf("store: unknown dataset kind %q (want %s|%s|%s|%s)",
			kind, KindIndependent, KindXRelation, KindTree, KindChain)
	}
}

// scanIndependent scans a score,probability CSV and checks it the way
// ParseIndependentCSV always has, in the same order: scan errors, the
// group-column guard, emptiness, then the tuple rules in input order
// (pdb's texts, tuple i being ID i; the scan checks each row as it lands).
// It returns the columns with their canonical order and the scores in it:
// order[j] is the input position at prepared position j, scores[j] its
// score. The caller releases the columns, and the order with them.
func scanIndependent(r io.Reader) (c *columns, order []uint32, scores []float64, err error) {
	c, err = scanCSV(r, false)
	if err != nil {
		return nil, nil, nil, err
	}
	if c.grouped {
		return nil, nil, nil, errors.New("store: independent CSV has a group column; load it as an x-relation (kind xrel)")
	}
	if c.n == 0 {
		return nil, nil, nil, errors.New("store: empty dataset")
	}
	if c.invalid != nil {
		return nil, nil, nil, c.invalid
	}
	if order, scores, err = c.sortOrder(); err != nil {
		c.release()
		return nil, nil, nil, err
	}
	return c, order, scores, nil
}

// independentSections returns the segment sections of a scanned
// independent CSV in the given canonical order, the scores already
// gathered into it and the probabilities streamed from the column blocks
// — the bytes Encode writes for the Dataset ParseIndependentCSV would
// build, without building it.
func (c *columns) independentSections(order []uint32, scores []float64) func(*sectionWriter) {
	return func(w *sectionWriter) {
		w.u32s(secIDs, len(order), func(j int) uint32 { return order[j] })
		w.f64s(secScores, len(scores), func(j int) float64 { return scores[j] })
		w.fixed(secProbs, 8, len(order), func(b []byte, lo int) { c.putOrdered(b, colProb, order[lo:]) })
	}
}

// ParseIndependentCSV parses score,probability rows as a tuple-independent
// dataset and canonicalizes them into prepared (score desc, ID asc) order —
// the sort is paid here, once, so a stored segment never needs it again. A
// group column, if present, is an error — use ParseXRelationCSV for
// x-relations.
func ParseIndependentCSV(r io.Reader) (*Dataset, error) {
	c, order, scores, err := scanIndependent(r)
	if err != nil {
		return nil, err
	}
	defer c.release()
	n := len(order)
	ds := &Dataset{Kind: KindIndependent,
		IDs: make([]pdb.TupleID, n), Scores: slices.Clone(scores), Probs: make([]float64, n)}
	for j, id := range order {
		ds.IDs[j], ds.Probs[j] = pdb.TupleID(id), c.at(colProb, int(id))
	}
	return ds, nil
}

// ParseXRelationCSV parses score,probability,group rows as an x-relation:
// rows sharing a group label are mutually exclusive alternatives of one
// x-tuple, grouped in label first-appearance order (the shared CSV
// convention — see andxor.GroupRows). The stored arrays are the leaves
// flattened group by group, which is exactly XTuples leaf-ID order.
func ParseXRelationCSV(r io.Reader) (*Dataset, error) {
	ds, _, err := parseXRelationCSV(r)
	return ds, err
}

// parseXRelationCSV is ParseXRelationCSV, also returning the and/xor tree
// it builds to check the rows, which ImportCSV hands to validate.
func parseXRelationCSV(r io.Reader) (*Dataset, *andxor.Tree, error) {
	c, err := scanCSV(r, true)
	if err != nil {
		return nil, nil, err
	}
	scores, probs := c.flat(colScore), c.flat(colProb)
	c.release()
	if len(scores) == 0 {
		return nil, nil, errors.New("store: empty dataset")
	}
	gs, _ := andxor.GroupRows(scores, probs, c.labels)
	tree, err := andxor.XTuples(gs)
	if err != nil {
		return nil, nil, err
	}
	ds := &Dataset{Kind: KindXRelation}
	for g, alts := range gs {
		for _, a := range alts {
			ds.Scores = append(ds.Scores, a.Score)
			ds.Probs = append(ds.Probs, a.Prob)
			ds.Groups = append(ds.Groups, uint32(g))
		}
	}
	return ds, tree, nil
}

// TreeSpec is the recursive form of an and/xor tree node — exactly one of
// Leaf, And, Xor per node. It doubles as the JSON schema the loaders accept:
//
//	{"and": [
//	  {"xor": {"probs": [0.4, 0.6], "children": [
//	    {"leaf": {"score": 120}}, {"leaf": {"score": 80}}]}},
//	  {"leaf": {"key": "t3", "score": 95}}]}
type TreeSpec struct {
	Leaf *LeafSpec  `json:"leaf,omitempty"`
	And  []TreeSpec `json:"and,omitempty"`
	Xor  *XorSpec   `json:"xor,omitempty"`
}

// LeafSpec is a tree leaf: an optional mutual-exclusion key and a score.
type LeafSpec struct {
	Key   string  `json:"key,omitempty"`
	Score float64 `json:"score"`
}

// XorSpec is a ∨ node: edge probabilities paired with children.
type XorSpec struct {
	Probs    []float64  `json:"probs"`
	Children []TreeSpec `json:"children"`
}

// leaves counts the leaves of the spec.
func (ts *TreeSpec) leaves() int {
	if ts == nil {
		return 0
	}
	if ts.Leaf != nil {
		return 1
	}
	n := 0
	for i := range ts.And {
		n += ts.And[i].leaves()
	}
	if ts.Xor != nil {
		for i := range ts.Xor.Children {
			n += ts.Xor.Children[i].leaves()
		}
	}
	return n
}

// node builds the andxor node for a spec.
func (ts *TreeSpec) node(path string) (*andxor.Node, error) {
	set := 0
	if ts.Leaf != nil {
		set++
	}
	if len(ts.And) > 0 {
		set++
	}
	if ts.Xor != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("store: tree node %s must set exactly one of leaf, and, xor", path)
	}
	switch {
	case ts.Leaf != nil:
		if ts.Leaf.Key != "" {
			return andxor.NewKeyedLeaf(ts.Leaf.Key, ts.Leaf.Score), nil
		}
		return andxor.NewLeaf(ts.Leaf.Score), nil
	case ts.Xor != nil:
		if len(ts.Xor.Probs) != len(ts.Xor.Children) {
			return nil, fmt.Errorf("store: tree node %s has %d probs for %d children", path, len(ts.Xor.Probs), len(ts.Xor.Children))
		}
		kids := make([]*andxor.Node, len(ts.Xor.Children))
		for i := range ts.Xor.Children {
			n, err := ts.Xor.Children[i].node(fmt.Sprintf("%s.xor[%d]", path, i))
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		return andxor.NewXor(ts.Xor.Probs, kids...), nil
	default:
		kids := make([]*andxor.Node, len(ts.And))
		for i := range ts.And {
			n, err := ts.And[i].node(fmt.Sprintf("%s.and[%d]", path, i))
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		return andxor.NewAnd(kids...), nil
	}
}

// ParseTreeJSON parses a nested and/xor tree spec (see TreeSpec).
// Probability and key constraints are validated by the tree constructor.
func ParseTreeJSON(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec TreeSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("store: malformed tree spec: %w", err)
	}
	ds := &Dataset{Kind: KindTree, Tree: &spec}
	if _, err := ds.tree(); err != nil {
		return nil, err
	}
	return ds, nil
}

// chainSpec is the JSON form of a Markov chain: n scores and n−1 calibrated
// pairwise joints Pr(Y_j, Y_{j+1}), each a [[p00, p01], [p10, p11]] table.
type chainSpec struct {
	Scores []float64       `json:"scores"`
	Pairs  [][2][2]float64 `json:"pairs"`
}

// ParseChainJSON parses a Markov chain spec. Calibration of the pairwise
// joints is validated by the chain constructor.
func ParseChainJSON(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec chainSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("store: malformed chain spec: %w", err)
	}
	if _, err := junction.NewChain(spec.Scores, spec.Pairs); err != nil {
		return nil, err
	}
	return &Dataset{Kind: KindChain, Scores: spec.Scores, Pairs: spec.Pairs}, nil
}
