package serve

// Tests for the request decode (decode.go) and the byte-cache hit path:
// which bodies the one-pass scanner takes and what it makes of them,
// Accept-Encoding negotiation, and the allocations of a cached /rank and
// /rankbatch driven through Server.ServeHTTP. FuzzRankRequestDecode
// (fuzz_test.go) holds the whole decode to encoding/json's answers.

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestScanRequestShapes pins which bodies the scanner takes. A taken body
// must decode exactly as encoding/json decodes it; a refused one goes to
// encoding/json whole.
func TestScanRequestShapes(t *testing.T) {
	take := []string{
		`{"dataset":"iip","query":{"metric":"prfe","output":"topk","alpha":0.95,"k":10}}`,
		`{"dataset":"iip","query":{"metric":"prfe","output":"topk","alphas":[0.1,0.5,0.9],"k":10},"stream":true}`,
		` { "dataset" : "iip" , "query" : { "metric" : "pth" , "h" : 4 } , "timeout_ms" : 250 , "format" : "columnar" } ` + "\n\t\r",
		`{"dataset":"iip","query":{"metric":"prfomega","weights":[]}}`,
		`{"dataset":"iip","query":{"metric":"prfe","alpha":-0,"k":-0}}`,
		`{"dataset":"iip","query":{"metric":"prfe","alpha":1E-3,"alphas":[1,2.5e+2,-3e0]}}`,
		`{"dataset":"","query":{},"stream":false}`,
		`{}`,
	}
	for _, body := range take {
		var got, want RankRequest
		if !scanRequest([]byte(body), &got) {
			t.Errorf("scanner refused %s", body)
			continue
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("encoding/json refused %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n scan %+v\n json %+v", body, got, want)
		}
	}
	var empty RankRequest
	if !scanRequest([]byte(`{"query":{"alphas":[]}}`), &empty) || empty.Query.Alphas == nil {
		t.Errorf("[] must scan to a non-nil empty slice, got %#v", empty.Query.Alphas)
	}

	refuse := []string{
		``,
		`null`,
		`{} x`,
		`{}{}`,
		`[]`,
		`{"dataset":"a","dataset":"b"}`,
		`{"query":{"k":1,"k":2}}`,
		`{"Dataset":"iip"}`,
		`{"query":{"Metric":"prfe"}}`,
		`{"dataset":"i\u0069p"}`,
		`{"dataset":"i\"p"}`,
		"{\"dataset\":\"caf\xc3\xa9\"}",
		"{\"dataset\":\"a\x7f\"}",
		`{"query":{"k":1.0}}`,
		`{"query":{"k":1e2}}`,
		`{"query":{"k":01}}`,
		`{"query":{"alpha":01}}`,
		`{"query":{"alpha":.5}}`,
		`{"query":{"alpha":1.}}`,
		`{"query":{"alpha":+1}}`,
		`{"query":{"alpha":1e400}}`,
		`{"query":{"k":9223372036854775808}}`,
		`{"timeout_ms":1.5}`,
		`{"query":{"alpha":null}}`,
		`{"query":null}`,
		`{"dataset":null}`,
		`{"query":{"terms":[]}}`,
		`{"query":{"metric":"erank","parallelism":2}}`,
		`{"querry":{}}`,
		`{"stream":1}`,
		`{"stream":True}`,
		`{"query":{"alphas":[1,]}}`,
		`{"query":{"alphas":[,1]}}`,
		`{"query":{"alphas":["1"]}}`,
		`{"dataset":"a",}`,
		`{,"dataset":"a"}`,
		`{"dataset" "a"}`,
		`{"dataset":"a"`,
		"\ufeff{}",
		"{}\x00",
		"{\"dataset\":\"a\"}\v",
	}
	for _, body := range refuse {
		var got RankRequest
		if scanRequest([]byte(body), &got) {
			t.Errorf("scanner took %q", body)
		}
	}
}

// TestAcceptsGzip pins Accept-Encoding negotiation to RFC 9110: qvalues
// are parsed, codings and the q parameter compare case-insensitively, an
// explicit gzip outranks "*", and every field line counts.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		fields []string
		want   bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"identity"}, false},
		{[]string{"gzip"}, true},
		{[]string{"GZIP"}, true},
		{[]string{"Gzip;q=0.5"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip;Q=0"}, false},
		{[]string{"gzip; q=0.000"}, false},
		{[]string{"gzip;q=0.05"}, true},
		{[]string{"gzip;q=0.001"}, true},
		{[]string{"gzip;q=1"}, true},
		{[]string{"gzip;q=1.000"}, true},
		{[]string{"gzip;q=1.5"}, false},
		{[]string{"gzip;q=2"}, false},
		{[]string{"gzip;q=0.0001"}, false},
		{[]string{"gzip;q=abc"}, false},
		{[]string{"deflate, gzip;q=0"}, false},
		{[]string{"gzip;q=0, deflate"}, false},
		{[]string{"deflate, gzip"}, true},
		{[]string{"br;q=1.0, gzip;q=0.8, *;q=0.1"}, true},
		{[]string{"*"}, true},
		{[]string{"*;q=0"}, false},
		{[]string{"*;q=0, gzip"}, true},
		{[]string{"gzip;q=0, *"}, false},
		{[]string{"x-gzip"}, false},
		{[]string{"gzipx"}, false},
		{[]string{"identity", "gzip"}, true},
		{[]string{"deflate", "gzip;q=0"}, false},
	}
	for _, tc := range cases {
		r := &http.Request{Header: http.Header{}}
		for _, f := range tc.fields {
			r.Header.Add("Accept-Encoding", f)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", tc.fields, got, tc.want)
		}
	}
}

// hitWriter is a ResponseWriter that keeps only the status and body
// length, so an allocation count sees the server and nothing else.
type hitWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *hitWriter) Header() http.Header { return w.h }

func (w *hitWriter) WriteHeader(code int) { w.status = code }

func (w *hitWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// TestCachedHitAllocs bounds the allocations of a byte-cache hit driven
// through Server.ServeHTTP, for a cached /rank and a cached /rankbatch.
// The bound is the count a hit makes: the body reader's limit, the decoded
// strings (and the grid), the query's cache key and the byte key. The race
// detector makes sync.Pool drop what it is given, so the count is held
// only without it.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	s, _ := testServer(t, Options{})
	cases := []struct {
		path  string
		q     WireQuery
		limit float64
	}{
		{"/rank", WireQuery{Metric: "prfe", Output: "topk", Alpha: 0.95, K: 10}, 7},
		{"/rankbatch", WireQuery{Metric: "prfe", Output: "topk", Alphas: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, K: 10}, 8},
	}
	for _, tc := range cases {
		body := reqBody(t, "iip", tc.q)
		rd := strings.NewReader(body)
		req, err := http.NewRequest(http.MethodPost, "http://prf"+tc.path, io.NopCloser(rd))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", "identity")
		w := &hitWriter{h: http.Header{}}
		serve := func() {
			rd.Reset(body)
			clear(w.h)
			w.status, w.n = 0, 0
			s.ServeHTTP(w, req)
		}
		serve() // the miss that fills the byte cache
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("%s: status %d, %d bytes", tc.path, w.status, w.n)
		}
		d, _ := s.dataset("iip")
		hits := d.bytes.stats().Hits
		allocs := testing.AllocsPerRun(200, serve)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d on a hit", tc.path, w.status)
		}
		if got := d.bytes.stats().Hits - hits; got < 200 {
			t.Fatalf("%s: %d byte-cache hits in 200 runs", tc.path, got)
		}
		if allocs > tc.limit {
			t.Errorf("cached %s: %.0f allocations per hit, want at most %.0f", tc.path, allocs, tc.limit)
		}
		t.Logf("cached %s: %.0f allocations per hit", tc.path, allocs)
	}
}
