package engine

// The cache-key compatibility contract, pinned to a golden file: the key
// encoding is persisted state in spirit (warm caches, the serving layer's
// byte keys compose it), so any drift — a re-tagged field, a metric byte
// collision, an accidental re-numbering — must fail a test instead of
// silently aliasing entries. Regenerate with:
//
//	go test ./internal/engine -run TestCacheKeyGolden -update-cachekeys
//
// and review the diff like a wire-format change.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

var updateCacheKeys = flag.Bool("update-cachekeys", false, "rewrite testdata/cachekeys.golden")

// goldenQueries is the canonical matrix: every cacheable metric at every
// output form with representative parameters, plus grid/top-k variants. Names are stable identifiers, one golden line each.
func goldenQueries() []struct {
	name string
	q    Query
} {
	terms := []core.ExpTerm{
		{U: complex(0.75, 0), Alpha: complex(0.9, 0)},
		{U: complex(-0.25, 0.5), Alpha: complex(0.4, 0.1)},
	}
	return []struct {
		name string
		q    Query
	}{
		{"prfe/values", Query{Metric: MetricPRFe, Alpha: 0.85}},
		{"prfe/ranking", Query{Metric: MetricPRFe, Alpha: 0.85, Output: OutputRanking}},
		{"prfe/topk", Query{Metric: MetricPRFe, Alpha: 0.85, Output: OutputTopK, K: 10}},
		{"prfe/grid", Query{Metric: MetricPRFe, Alphas: []float64{0.25, 0.5, 0.75}}},
		{"prfomega/values", Query{Metric: MetricPRFOmega, Weights: []float64{3, 2, 1}}},
		{"prfomega/ranking", Query{Metric: MetricPRFOmega, Weights: []float64{3, 2, 1}, Output: OutputRanking}},
		{"pth/values", Query{Metric: MetricPTh, H: 7}},
		{"pth/topk", Query{Metric: MetricPTh, H: 7, Output: OutputTopK, K: 3}},
		{"erank/values", Query{Metric: MetricERank}},
		{"erank/ranking", Query{Metric: MetricERank, Output: OutputRanking}},
		{"prfecombo/values", Query{Metric: MetricPRFeCombo, Terms: terms}},
		{"prfecombo/ranking", Query{Metric: MetricPRFeCombo, Terms: terms, Output: OutputRanking}},
		{"globaltopk/values", Query{Metric: MetricGlobalTopk, K: 5}},
		{"globaltopk/values-k7", Query{Metric: MetricGlobalTopk, K: 7}},
		{"globaltopk/ranking", Query{Metric: MetricGlobalTopk, K: 5, Output: OutputRanking}},
		{"globaltopk/topk", Query{Metric: MetricGlobalTopk, K: 5, Output: OutputTopK}},
		{"expectedrank/values", Query{Metric: MetricExpectedRank}},
		{"expectedrank/ranking", Query{Metric: MetricExpectedRank, Output: OutputRanking}},
		{"expectedrank/topk", Query{Metric: MetricExpectedRank, Output: OutputTopK, K: 4}},
		{"medianrank/values", Query{Metric: MetricMedianRank}},
		{"medianrank/ranking", Query{Metric: MetricMedianRank, Output: OutputRanking}},
		{"medianrank/topk", Query{Metric: MetricMedianRank, Output: OutputTopK, K: 4}},
	}
}

func TestCacheKeyGolden(t *testing.T) {
	var b strings.Builder
	seen := map[string]string{}
	for _, gq := range goldenQueries() {
		key, ok := gq.q.CacheKey()
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", gq.name)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s and %s collide on cache key %q", gq.name, prev, key)
		}
		seen[key] = gq.name
		fmt.Fprintf(&b, "%s\t%s\n", gq.name, key)
	}
	path := filepath.Join("testdata", "cachekeys.golden")
	if *updateCacheKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-cachekeys to generate): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("cache keys drifted from %s — if intentional, regenerate with -update-cachekeys and treat as a wire-format change.\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestCachedEngineSemanticsRoundTrip certifies the new metrics across the
// cache: for every metric × output the cached answer (miss and hit) equals
// the uncached one, and mutating a returned result never corrupts later
// hits.
func TestCachedEngineSemanticsRoundTrip(t *testing.T) {
	ctx := context.Background()
	e := New(core.Prepare(datagen.IIPLike(64, 17)))
	ce := NewCached(e, 0)
	rng := rand.New(rand.NewSource(99))
	queries := []Query{
		{Metric: MetricGlobalTopk, K: 5},
		{Metric: MetricGlobalTopk, K: 5, Output: OutputRanking},
		{Metric: MetricGlobalTopk, K: 5, Output: OutputTopK},
		{Metric: MetricExpectedRank},
		{Metric: MetricExpectedRank, Output: OutputRanking},
		{Metric: MetricExpectedRank, Output: OutputTopK, K: 6},
		{Metric: MetricMedianRank},
		{Metric: MetricMedianRank, Output: OutputRanking},
		{Metric: MetricMedianRank, Output: OutputTopK, K: 6},
	}
	for _, q := range queries {
		want, err := e.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%v/%v uncached: %v", q.Metric, q.Output, err)
		}
		miss, err := ce.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%v/%v miss: %v", q.Metric, q.Output, err)
		}
		if !reflect.DeepEqual(miss, want) {
			t.Fatalf("%v/%v: cache miss differs from uncached", q.Metric, q.Output)
		}
		// Vandalize the returned copy: later hits must be unaffected.
		for i := range miss.Values {
			miss.Values[i] = rng.Float64()
		}
		for i := range miss.Ranking {
			miss.Ranking[i] = 0
		}
		hit, err := ce.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%v/%v hit: %v", q.Metric, q.Output, err)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Fatalf("%v/%v: cache hit differs from uncached (mutation leaked)", q.Metric, q.Output)
		}
	}
	if st := ce.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("round trip never exercised the cache: %+v", st)
	}
}
