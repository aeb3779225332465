package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/junction"
)

const xrelCSV = `score,probability,group
120,0.4,a
130,0.7,b
80,0.3,b
95,0.4,c
110,0.6,c
105,1.0,
`

const chainJSON = `{
  "scores": [30, 20, 10],
  "pairs": [
    [[0.30, 0.20], [0.10, 0.40]],
    [[0.28, 0.12], [0.42, 0.18]]
  ]
}`

const treeJSON = `{"and": [
  {"xor": {"probs": [0.4], "children": [{"leaf": {"score": 120}}]}},
  {"xor": {"probs": [0.7, 0.3], "children": [{"leaf": {"score": 130}}, {"leaf": {"score": 80}}]}}
]}`

// testServer builds a server with one dataset per loadable model.
func testServer(t *testing.T, opts Options) (*Server, map[string]*engine.Engine) {
	t.Helper()
	engines := map[string]*engine.Engine{
		"iip": engine.New(core.Prepare(datagen.IIPLike(128, 9))),
	}
	for name, src := range map[string][2]string{
		"sensors": {KindXRelation, xrelCSV},
		"chain":   {KindChain, chainJSON},
		"traffic": {KindTree, treeJSON},
	} {
		e, err := Load(src[0], strings.NewReader(src[1]))
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		engines[name] = e
	}
	// A genuine Markov-network dataset so all four backends (independent,
	// andxor, network, chain) sit behind one server.
	net, err := junction.NewNetwork(
		[]float64{90, 75, 60, 45},
		[]junction.Factor{
			{Vars: []int{0, 1}, Table: []float64{0.10, 0.30, 0.35, 0.25}},
			{Vars: []int{1, 2}, Table: []float64{0.20, 0.25, 0.30, 0.25}},
			{Vars: []int{3}, Table: []float64{0.45, 0.55}},
		})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	engines["grid"] = engine.New(pn)
	s := New(opts)
	for name, e := range engines {
		if err := s.AddDataset(name, e); err != nil {
			t.Fatal(err)
		}
	}
	return s, engines
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func reqBody(t *testing.T, dataset string, q WireQuery) string {
	t.Helper()
	b, err := json.Marshal(RankRequest{Dataset: dataset, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeMatchesEngine certifies the HTTP path against Engine.Rank run
// in-process, per model and query shape: decoding the HTTP body must
// DeepEqual the locally built response.
func TestServeMatchesEngine(t *testing.T) {
	s, engines := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx := context.Background()

	queries := []WireQuery{
		{Metric: "prfe", Alpha: 0.9, Output: "topk", K: 3},
		{Metric: "prfe", Alpha: 0.5, Output: "ranking"},
		{Metric: "prfe", Alpha: 0.5},
		{Metric: "pth", H: 2, Output: "ranking"},
		{Metric: "erank", Output: "topk", K: 2},
		{Metric: "prfomega", Weights: []float64{3, 2, 1}},
		{Metric: "prfecombo", Output: "ranking", Terms: []Term{
			{U: Complex{1, 0}, Alpha: Complex{0.9, 0}},
			{U: Complex{-0.25, 0.5}, Alpha: Complex{0.5, 0.1}},
		}},
		{Metric: "globaltopk", K: 2},
		{Metric: "expectedrank", Output: "ranking"},
		{Metric: "medianrank", Output: "topk", K: 3},
	}
	for name, e := range engines {
		for i, wq := range queries {
			resp, body := post(t, ts.URL+"/rank", reqBody(t, name, wq))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s query %d: status %d: %s", name, i, resp.StatusCode, body)
			}
			var got RankResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
			q, err := wq.ToQuery()
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d in-process: %v", name, i, err)
			}
			want := RankResponse{Dataset: name, WireResult: FromResult(res)}
			// Round-trip the local response through JSON too, so nil-vs-empty
			// slice and float formatting are compared on equal footing.
			var wantRT RankResponse
			wb, _ := json.Marshal(want)
			_ = json.Unmarshal(wb, &wantRT)
			if !reflect.DeepEqual(got, wantRT) {
				t.Errorf("%s query %d: HTTP answer diverges from in-process engine\n got: %+v\nwant: %+v", name, i, got, wantRT)
			}
		}
	}
}

// TestServeBatchMatchesEngine does the same for /rankbatch α sweeps.
func TestServeBatchMatchesEngine(t *testing.T) {
	s, engines := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	wq := WireQuery{Metric: "prfe", Alphas: []float64{0.2, 0.5, 0.8}, Output: "topk", K: 3}
	for name, e := range engines {
		resp, body := post(t, ts.URL+"/rankbatch", reqBody(t, name, wq))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var got BatchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		q, _ := wq.ToQuery()
		res, err := e.RankBatch(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := BatchResponse{Dataset: name, Results: FromResults(res)}
		var wantRT BatchResponse
		wb, _ := json.Marshal(want)
		_ = json.Unmarshal(wb, &wantRT)
		if !reflect.DeepEqual(got, wantRT) {
			t.Errorf("%s: batch HTTP answer diverges from in-process engine", name)
		}
		if len(got.Results) != len(wq.Alphas) {
			t.Errorf("%s: got %d results for %d grid points", name, len(got.Results), len(wq.Alphas))
		}
	}
}

// TestServeCacheObservable: repeating a query must byte-match the first
// answer and show up as a byte-cache hit in /stats. With the byte cache on
// it is the dataset's only cache, so /stats carries no engine cache block.
func TestServeCacheObservable(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.95, Output: "topk", K: 10})
	_, first := post(t, ts.URL+"/rank", body)
	_, second := post(t, ts.URL+"/rank", body)
	if !bytes.Equal(first, second) {
		t.Error("cached repeat of an identical query returned different bytes")
	}

	resp, data := post(t, ts.URL+"/rank", body) // third: another hit
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_ = data
	statsResp, statsBody := get(t, ts.URL+"/stats")
	if statsResp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", statsResp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	ds, ok := st.Datasets["iip"]
	if !ok || ds.ByteCache == nil {
		t.Fatalf("stats missing iip byte_cache block: %s", statsBody)
	}
	if ds.Cache != nil {
		t.Errorf("engine cache block present beside the byte cache: %s", statsBody)
	}
	// The first request misses and fills the byte cache; the two repeats
	// are hits that never reach the engine.
	if ds.ByteCache.Hits < 2 || ds.ByteCache.Misses < 1 || ds.ByteCache.Entries < 1 || ds.ByteCache.Bytes <= 0 {
		t.Errorf("byte-cache counters off: %+v", *ds.ByteCache)
	}
	if st.Requests < 3 {
		t.Errorf("request counter off: %d", st.Requests)
	}
}

// TestServeCacheDisabled: negative capacity serves uncached but correct.
func TestServeCacheDisabled(t *testing.T) {
	s, _ := testServer(t, Options{CacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.95, Output: "topk", K: 5})
	_, first := post(t, ts.URL+"/rank", body)
	_, second := post(t, ts.URL+"/rank", body)
	if !bytes.Equal(first, second) {
		t.Error("uncached identical queries must still agree")
	}
	_, statsBody := get(t, ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Datasets["iip"].Cache != nil {
		t.Error("cache stats present though caching is disabled")
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeErrors covers every error surface: malformed JSON, unknown
// fields, unknown dataset, bad query parameters, unsupported metric, wrong
// method, negative timeout, oversized body.
func TestServeErrors(t *testing.T) {
	s, _ := testServer(t, Options{MaxBodyBytes: 4096})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name       string
		path, body string
		status     int
		code       string
	}{
		{"malformed json", "/rank", `{"dataset": "iip", `, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/rank", `{"dataset": "iip", "querry": {}}`, http.StatusBadRequest, "bad_request"},
		{"unknown dataset", "/rank", reqBody(t, "nope", WireQuery{Metric: "prfe", Alpha: 0.5}), http.StatusNotFound, "unknown_dataset"},
		{"unknown metric", "/rank", reqBody(t, "iip", WireQuery{Metric: "magic"}), http.StatusBadRequest, "bad_request"},
		{"prf has no wire form", "/rank", reqBody(t, "iip", WireQuery{Metric: "prf"}), http.StatusBadRequest, "bad_request"},
		{"bad output", "/rank", reqBody(t, "iip", WireQuery{Metric: "prfe", Output: "best"}), http.StatusBadRequest, "bad_request"},
		{"negative h", "/rank", reqBody(t, "iip", WireQuery{Metric: "pth", H: -2}), http.StatusBadRequest, "bad_request"},
		{"negative k", "/rank", reqBody(t, "iip", WireQuery{Metric: "prfe", Output: "topk", K: -1}), http.StatusBadRequest, "bad_request"},
		{"grid on rank", "/rank", reqBody(t, "iip", WireQuery{Metric: "prfe", Alphas: []float64{0.1, 0.2}}), http.StatusBadRequest, "bad_request"},
		{"batch without grid", "/rankbatch", reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.5}), http.StatusBadRequest, "bad_request"},
		{"batch gridless metric", "/rankbatch", reqBody(t, "iip", WireQuery{Metric: "erank"}), http.StatusBadRequest, "bad_request"},
		{"batch gridless globaltopk", "/rankbatch", reqBody(t, "iip", WireQuery{Metric: "globaltopk", K: 2}), http.StatusBadRequest, "bad_request"},
		{"negative parallelism", "/rank", reqBody(t, "iip", WireQuery{Metric: "medianrank", Parallelism: -3}), http.StatusBadRequest, "bad_request"},
		{"negative timeout", "/rank", `{"dataset": "iip", "query": {"metric": "prfe"}, "timeout_ms": -5}`, http.StatusBadRequest, "bad_request"},
		{"oversized body", "/rank", `{"dataset": "iip", "query": {"metric": "prfomega", "weights": [` + strings.Repeat("1,", 4000) + `1]}}`, http.StatusRequestEntityTooLarge, "too_large"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, body)
			continue
		}
		if er.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, er.Code, tc.code)
		}
	}

	// Wrong method on a known path: 405 with the JSON shape and Allow —
	// on the POST endpoints and the GET endpoints alike.
	methodCases := []struct {
		do    func() (*http.Response, []byte)
		name  string
		allow string
	}{
		{func() (*http.Response, []byte) { return get(t, ts.URL+"/rank") }, "GET /rank", "POST"},
		{func() (*http.Response, []byte) { return post(t, ts.URL+"/stats", "{}") }, "POST /stats", "GET"},
		{func() (*http.Response, []byte) { return post(t, ts.URL+"/datasets", "{}") }, "POST /datasets", "GET"},
	}
	for _, mc := range methodCases {
		resp, body := mc.do()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405 (%s)", mc.name, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != "method_not_allowed" {
			t.Errorf("%s: body %q", mc.name, body)
		}
		if got := resp.Header.Get("Allow"); got != mc.allow {
			t.Errorf("%s: Allow %q, want %q", mc.name, got, mc.allow)
		}
	}

	// Unknown path: JSON 404 with code not_found.
	resp, body := get(t, ts.URL+"/nosuch")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nosuch: status %d, want 404 (%s)", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "not_found" {
		t.Errorf("GET /nosuch: body %q", body)
	}
}

// TestLoadXRelationGroupCollision: a user group literally named like a
// row index must stay separate from ungrouped singleton rows.
func TestLoadXRelationGroupCollision(t *testing.T) {
	e, err := LoadXRelationCSV(strings.NewReader("10,0.5,\n20,0.4,_row0\n30,0.3,_row0\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Three leaves in two x-tuples: the singleton plus the two _row0
	// alternatives — never one merged three-way group.
	if e.Ranker().Len() != 3 {
		t.Fatalf("leaves = %d, want 3", e.Ranker().Len())
	}
	ctx := context.Background()
	res, err := e.Rank(ctx, engine.Query{Metric: engine.MetricPTh, H: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The ungrouped tuple (p=0.5) is independent of the x-tuple, so its
	// PT(3) value is exactly its probability; if it had been merged into
	// the group the xor constraint (sum ≤ 1) would have failed validation
	// or changed the value.
	if res.Values[0] != 0.5 {
		t.Fatalf("singleton PT(3) = %v, want 0.5", res.Values[0])
	}
}

// TestServeDeadline: an immediately-expiring default deadline must surface
// as 504 deadline_exceeded — the context is cut off mid-request and the
// engines abort between grid points.
func TestServeDeadline(t *testing.T) {
	s, _ := testServer(t, Options{DefaultTimeout: time.Nanosecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// A batch sweep exercises the ctx checks between grid points.
	resp, body := post(t, ts.URL+"/rankbatch",
		reqBody(t, "iip", WireQuery{Metric: "prfe", Alphas: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, Output: "ranking"}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "deadline_exceeded" {
		t.Fatalf("body %q", body)
	}

	// A per-request timeout_ms above the tiny default is still clamped by
	// nothing here, so a generous timeout succeeds on the same server only
	// if it overrides the default — it does.
	resp, body = post(t, ts.URL+"/rank",
		`{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.5, "output": "ranking"}, "timeout_ms": 30000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request-level timeout did not override the default: %d %s", resp.StatusCode, body)
	}
}

// TestServeMaxTimeoutClamp: a client timeout above MaxTimeout is clamped,
// but MaxTimeout never creates a deadline where none was requested.
func TestServeMaxTimeoutClamp(t *testing.T) {
	s, _ := testServer(t, Options{MaxTimeout: time.Nanosecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := post(t, ts.URL+"/rank",
		`{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.5, "output": "ranking"}, "timeout_ms": 60000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("MaxTimeout clamp not applied: %d %s", resp.StatusCode, body)
	}
	// No default timeout, no timeout_ms: the same server must NOT impose
	// its MaxTimeout as a deadline.
	resp, body = post(t, ts.URL+"/rank",
		`{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.5, "output": "ranking"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline imposed without default or request timeout: %d %s", resp.StatusCode, body)
	}
}

// TestServeDatasets checks the listing endpoint.
func TestServeDatasets(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var infos []DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"chain": "chain", "grid": "network", "iip": "independent", "sensors": "andxor", "traffic": "andxor"}
	if len(infos) != len(want) {
		t.Fatalf("got %d datasets, want %d: %s", len(infos), len(want), body)
	}
	for _, info := range infos {
		if want[info.Name] != info.Model {
			t.Errorf("dataset %s: model %q, want %q", info.Name, info.Model, want[info.Name])
		}
		if info.Tuples <= 0 || !info.Cached {
			t.Errorf("dataset %s: bad info %+v", info.Name, info)
		}
	}
}

// TestServeHealthz checks liveness.
func TestServeHealthz(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// TestServeConcurrent hammers the server with identical and distinct
// queries from many clients (run with -race): every answer must byte-match
// the reference answer for its query.
func TestServeConcurrent(t *testing.T) {
	// Byte cache off, so the engine cache is the dataset's cache; small
	// cache: force concurrent eviction.
	s, _ := testServer(t, Options{CacheCapacity: 8, ByteCacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := []string{
		reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.9, Output: "topk", K: 5}),
		reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.4, Output: "ranking"}),
		reqBody(t, "iip", WireQuery{Metric: "pth", H: 3, Output: "ranking"}),
		reqBody(t, "sensors", WireQuery{Metric: "prfe", Alpha: 0.7, Output: "topk", K: 4}),
		reqBody(t, "chain", WireQuery{Metric: "erank", Output: "ranking"}),
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		resp, data := post(t, ts.URL+"/rank", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %d: %d %s", i, resp.StatusCode, data)
		}
		want[i] = data
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (w + i) % len(bodies)
				resp, err := http.Post(ts.URL+"/rank", "application/json", strings.NewReader(bodies[qi]))
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				if !bytes.Equal(data, want[qi]) {
					errs <- fmt.Errorf("worker %d query %d: answer diverged under concurrency", w, qi)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLoadErrors covers the loader error surfaces.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, kind, src, want string
	}{
		{"unknown kind", "csv", "", "unknown dataset kind"},
		{"empty independent", KindIndependent, "score,probability\n", "empty dataset"},
		{"grouped as independent", KindIndependent, "1,0.5,g\n", "group column"},
		{"bad probability", KindIndependent, "1,nope\n", "bad probability"},
		{"typo'd first data row is not a header", KindIndependent, "N/A,0.5\n1,0.5\n", "bad score"},
		{"short row", KindXRelation, "1\n", "need score,probability"},
		{"invalid tree json", KindTree, "{", "malformed tree spec"},
		{"ambiguous tree node", KindTree, `{"leaf": {"score": 1}, "and": [{"leaf": {"score": 2}}]}`, "exactly one"},
		{"invalid chain json", KindChain, `{"scores": "x"}`, "malformed chain spec"},
		{"uncalibrated chain", KindChain, `{"scores": [1, 2], "pairs": [[[0.9, 0.9], [0.9, 0.9]]]}`, ""},
	}
	for _, tc := range cases {
		_, err := Load(tc.kind, strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q, want containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := LoadFile(KindIndependent, "/nonexistent/x.csv"); err == nil {
		t.Error("missing file must error")
	}
}
