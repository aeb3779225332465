package serve

// Wire-path coverage for the consensus semantics (Global-Topk,
// Expected-Rank, Median-Rank): byte-equality between cached and uncached
// servers on /rank, and the ToQuery finite-parameter guard that keeps
// NaN/Inf out of cache keys.

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeSemanticsCacheByteEqual certifies that for every new metric the
// response bytes are identical across (a) a cold cache miss, (b) a warm
// byte-cache hit, and (c) a fully uncached server — oracle-certified
// results survive the serving caches unmutated.
func TestServeSemanticsCacheByteEqual(t *testing.T) {
	cached, _ := testServer(t, Options{})
	uncached, _ := testServer(t, Options{CacheCapacity: -1, ByteCacheCapacity: -1})
	tsc := httptest.NewServer(cached)
	defer tsc.Close()
	tsu := httptest.NewServer(uncached)
	defer tsu.Close()

	queries := []WireQuery{
		{Metric: "globaltopk", K: 2},
		{Metric: "globaltopk", Output: "ranking", K: 2},
		{Metric: "globaltopk", Output: "topk", K: 2},
		{Metric: "expectedrank"},
		{Metric: "expectedrank", Output: "ranking"},
		{Metric: "expectedrank", Output: "topk", K: 2},
		{Metric: "medianrank"},
		{Metric: "medianrank", Output: "ranking"},
		{Metric: "medianrank", Output: "topk", K: 2},
	}
	for _, name := range []string{"iip", "sensors", "chain", "traffic", "grid"} {
		for _, wq := range queries {
			body := reqBody(t, name, wq)
			resp, miss := post(t, tsc.URL+"/rank", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", name, wq.Metric, resp.StatusCode, miss)
			}
			_, hit := post(t, tsc.URL+"/rank", body)
			_, plain := post(t, tsu.URL+"/rank", body)
			if !bytes.Equal(miss, hit) {
				t.Errorf("%s %s/%s: cache hit differs from miss", name, wq.Metric, wq.Output)
			}
			if !bytes.Equal(miss, plain) {
				t.Errorf("%s %s/%s: cached server differs from uncached", name, wq.Metric, wq.Output)
			}
		}
	}
}

// TestToQueryRejectsNonFinite pins the validation layer: NaN/Inf
// parameters (which JSON cannot carry but in-process callers can) are
// rejected with typed serve errors before any cache key is derived.
func TestToQueryRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]WireQuery{
		"nan alpha":       {Metric: "prfe", Alpha: nan},
		"inf alpha":       {Metric: "prfe", Alpha: inf},
		"nan grid point":  {Metric: "prfe", Alphas: []float64{0.5, nan}},
		"-inf grid point": {Metric: "prfe", Alphas: []float64{math.Inf(-1)}},
		"nan weight":      {Metric: "prfomega", Weights: []float64{1, nan}},
		"inf weight":      {Metric: "prfomega", Weights: []float64{inf, 1}},
		"nan term u":      {Metric: "prfecombo", Terms: []Term{{U: Complex{nan, 0}, Alpha: Complex{0.5, 0}}}},
		"inf term alpha":  {Metric: "prfecombo", Terms: []Term{{U: Complex{1, 0}, Alpha: Complex{0, inf}}}},
	}
	for name, wq := range bad {
		if _, err := wq.ToQuery(); err == nil {
			t.Errorf("%s: ToQuery accepted %+v", name, wq)
		} else if !strings.HasPrefix(err.Error(), "serve:") {
			t.Errorf("%s: untyped error %q", name, err)
		}
	}
	// The finite guard must not over-reject: ordinary queries still decode.
	for _, wq := range []WireQuery{
		{Metric: "globaltopk", K: 3},
		{Metric: "expectedrank"},
		{Metric: "medianrank", Output: "ranking"},
		{Metric: "prfomega", Weights: []float64{3, 2, 1}},
	} {
		q, err := wq.ToQuery()
		if err != nil {
			t.Errorf("ToQuery rejected valid %+v: %v", wq, err)
			continue
		}
		if _, ok := q.CacheKey(); !ok {
			t.Errorf("decoded query %+v is not cacheable", wq)
		}
	}
}
