package serve

// Tests for the wire path added for wire-speed serving: Content-Type
// enforcement, gzip negotiation, streamed and columnar /rankbatch forms
// (each certified byte-equivalent to the buffered JSON path across all four
// backends), the single-flight cold-storm guarantee at the HTTP layer, and
// the byte cache's bounds.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pdb"
)

// postRaw POSTs with full header control and returns status, headers, body.
func postRaw(t *testing.T, url, body, contentType, acceptEncoding string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if acceptEncoding != "" {
		// Setting the header ourselves stops net/http's transparent
		// decompression, so the raw (possibly gzipped) bytes come back.
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	resp, err := http.DefaultClient.Do(req)
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

func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeContentType: POST bodies that do not declare JSON are a typed
// 415 on both endpoints; JSON media types (with parameters, +json subtypes)
// pass.
func TestServeContentType(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.5})

	rejected := []string{"", "text/plain", "application/x-www-form-urlencoded", "application/octet-stream", "json"}
	for _, path := range []string{"/rank", "/rankbatch"} {
		for _, ct := range rejected {
			resp, data := postRaw(t, ts.URL+path, body, ct, "")
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Errorf("%s with Content-Type %q: status %d, want 415", path, ct, resp.StatusCode)
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("%s: non-JSON 415 body: %v", path, err)
			}
			if er.Code != "unsupported_media_type" || !strings.HasPrefix(er.Error, "serve:") {
				t.Errorf("%s with Content-Type %q: error %+v", path, ct, er)
			}
		}
	}

	for _, ct := range []string{"application/json", "application/json; charset=utf-8", "application/problem+json"} {
		resp, _ := postRaw(t, ts.URL+"/rank", body, ct, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Content-Type %q: status %d, want 200", ct, resp.StatusCode)
		}
	}
}

// wireBatchBody builds a /rankbatch body for one dataset/output/format.
func wireBatchBody(t *testing.T, dataset, output, format string, stream bool, alphas []float64) string {
	t.Helper()
	b, err := json.Marshal(RankRequest{
		Dataset: dataset,
		Query:   WireQuery{Metric: "prfe", Alphas: alphas, Output: output},
		Stream:  stream,
		Format:  format,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeWireEquivalence certifies, for every backend and both batch
// payload shapes, that gzip (after decompression), streaming (after
// reassembly) and the columnar form (after Rows() mapping) reproduce the
// buffered identity JSON response exactly.
func TestServeWireEquivalence(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A grid wide enough that every dataset's body clears gzipMinSize.
	alphas := make([]float64, 48)
	for i := range alphas {
		alphas[i] = float64(i+1) / 50
	}

	for _, dsname := range []string{"iip", "sensors", "grid", "chain", "traffic"} {
		for _, output := range []string{"values", "ranking"} {
			name := dsname + "/" + output
			buffered := wireBatchBody(t, dsname, output, "", false, alphas)
			resp, want := postRaw(t, ts.URL+"/rankbatch", buffered, "application/json", "identity")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s buffered: status %d: %s", name, resp.StatusCode, want)
			}
			if len(want) < gzipMinSize {
				t.Fatalf("%s: buffered body only %d bytes, too small to exercise gzip", name, len(want))
			}

			// gzip negotiation: compressed on the wire, identical after gunzip.
			resp, zdata := postRaw(t, ts.URL+"/rankbatch", buffered, "application/json", "gzip")
			if resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("%s: gzip not negotiated (Content-Encoding %q)", name, resp.Header.Get("Content-Encoding"))
			}
			if len(zdata) >= len(want) {
				t.Errorf("%s: gzip body %d bytes is not smaller than identity %d", name, len(zdata), len(want))
			}
			if got := gunzip(t, zdata); !bytes.Equal(got, want) {
				t.Errorf("%s: gunzipped body differs from buffered body", name)
			}

			// Streamed: chunked on the wire, byte-identical reassembled.
			streamed := wireBatchBody(t, dsname, output, "", true, alphas)
			resp, got := postRaw(t, ts.URL+"/rankbatch", streamed, "application/json", "identity")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s streamed: status %d", name, resp.StatusCode)
			}
			if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
				t.Errorf("%s streamed: transfer encoding %v, want chunked", name, resp.TransferEncoding)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: reassembled stream differs from buffered body", name)
			}

			// Streamed + gzip.
			resp, zgot := postRaw(t, ts.URL+"/rankbatch", streamed, "application/json", "gzip")
			if resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("%s streamed: gzip not negotiated", name)
			}
			if got := gunzip(t, zgot); !bytes.Equal(got, want) {
				t.Errorf("%s: gunzipped stream differs from buffered body", name)
			}

			// Columnar: Rows() maps back onto the buffered results array.
			columnar := wireBatchBody(t, dsname, output, "columnar", false, alphas)
			resp, cdata := postRaw(t, ts.URL+"/rankbatch", columnar, "application/json", "identity")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s columnar: status %d: %s", name, resp.StatusCode, cdata)
			}
			var cb ColumnarBatch
			if err := json.Unmarshal(cdata, &cb); err != nil {
				t.Fatal(err)
			}
			var br BatchResponse
			if err := json.Unmarshal(want, &br); err != nil {
				t.Fatal(err)
			}
			if cb.Format != "columnar" || cb.Dataset != br.Dataset {
				t.Errorf("%s: columnar envelope %q/%q", name, cb.Format, cb.Dataset)
			}
			if !reflect.DeepEqual(cb.Rows(), br.Results) {
				t.Errorf("%s: columnar Rows() differ from buffered results", name)
			}
			if len(cdata) >= len(want) {
				t.Errorf("%s: columnar body %d bytes is not smaller than row form %d", name, len(cdata), len(want))
			}
		}
	}

	// Stream and format are /rankbatch concepts; /rank rejects them.
	rankReq := `{"dataset":"iip","query":{"metric":"prfe","alpha":0.5},"stream":true}`
	if resp, _ := postRaw(t, ts.URL+"/rank", rankReq, "application/json", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/rank with stream: status %d, want 400", resp.StatusCode)
	}
	badFormat := wireBatchBody(t, "iip", "ranking", "protobuf", false, alphas)
	if resp, _ := postRaw(t, ts.URL+"/rankbatch", badFormat, "application/json", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
	streamColumnar := wireBatchBody(t, "iip", "ranking", "columnar", true, alphas)
	if resp, _ := postRaw(t, ts.URL+"/rankbatch", streamColumnar, "application/json", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("streamed columnar: status %d, want 400", resp.StatusCode)
	}
}

// TestServeSmallBodyStaysIdentity: responses under gzipMinSize are served
// uncompressed even when the client accepts gzip.
func TestServeSmallBodyStaysIdentity(t *testing.T) {
	s, _ := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := reqBody(t, "grid", WireQuery{Metric: "prfe", Alpha: 0.5, Output: "topk", K: 2})
	resp, data := postRaw(t, ts.URL+"/rank", body, "application/json", "gzip")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("tiny body got Content-Encoding %q", enc)
	}
	if !json.Valid(data) {
		t.Error("tiny body is not plain JSON")
	}
}

// TestServeEncodingSiblings: with the byte cache as the dataset's only
// cache, the identity and gzip variants of one query are separate entries,
// so the second variant re-evaluates on the engine. Both bodies must still
// carry the same answer, and each must be the byte-cache hit for its own
// repeat.
func TestServeEncodingSiblings(t *testing.T) {
	s, engines := testServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	for _, tc := range []struct {
		path string
		q    WireQuery
	}{
		{"/rank", WireQuery{Metric: "prfe", Alpha: 0.8, Output: "values"}},
		{"/rankbatch", WireQuery{Metric: "prfe", Alphas: alphas, Output: "topk", K: 40}},
	} {
		body := reqBody(t, "iip", tc.q)
		resp, plain := postRaw(t, ts.URL+tc.path, body, "application/json", "identity")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
			t.Fatalf("%s identity: status %d, Content-Encoding %q", tc.path, resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if len(plain) < gzipMinSize {
			t.Fatalf("%s: body only %d bytes, too small to exercise gzip", tc.path, len(plain))
		}
		resp, zdata := postRaw(t, ts.URL+tc.path, body, "application/json", "gzip")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s gzip: status %d, Content-Encoding %q", tc.path, resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if got := gunzip(t, zdata); !bytes.Equal(got, plain) {
			t.Errorf("%s: gzip sibling inflates to a different body than identity", tc.path)
		}
		// Both bodies are the in-process engine's answer.
		q, err := tc.q.ToQuery()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if tc.path == "/rank" {
			res, err := engines["iip"].Rank(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewEncoder(&want).Encode(RankResponse{Dataset: "iip", WireResult: FromResult(res)})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			res, err := engines["iip"].RankBatch(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&want).Encode(BatchResponse{Dataset: "iip", Results: FromResults(res)}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(plain, want.Bytes()) {
			t.Errorf("%s: served body diverges from the in-process engine", tc.path)
		}
		// Repeats of each variant are byte-identical hits.
		if _, again := postRaw(t, ts.URL+tc.path, body, "application/json", "identity"); !bytes.Equal(again, plain) {
			t.Errorf("%s: identity repeat differs", tc.path)
		}
		if _, again := postRaw(t, ts.URL+tc.path, body, "application/json", "gzip"); !bytes.Equal(again, zdata) {
			t.Errorf("%s: gzip repeat differs", tc.path)
		}
	}
	_, statsBody := get(t, ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	bc := st.Datasets["iip"].ByteCache
	if bc == nil || bc.Misses != 4 || bc.Hits != 4 || bc.Entries != 4 {
		t.Errorf("byte cache: want 4 misses (two queries × two encodings), 4 hits, 4 entries; got %s", statsBody)
	}
}

// stormRanker wraps a Ranker, counting batch evaluations and holding each
// one long enough for a storm of waiters to pile onto the flight.
type stormRanker struct {
	engine.Ranker
	evals atomic.Int64
}

func (c *stormRanker) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	c.evals.Add(1)
	time.Sleep(20 * time.Millisecond)
	return c.Ranker.QueryRankPRFeBatch(ctx, alphas)
}

// TestServeSingleFlightStorm (run under -race in CI): 32 concurrent clients
// hit one cold key; the backend must evaluate exactly once and every client
// must receive byte-identical bodies.
func TestServeSingleFlightStorm(t *testing.T) {
	cr := &stormRanker{Ranker: core.Prepare(datagen.IIPLike(96, 11))}
	s := New(Options{})
	if err := s.AddDataset("storm", engine.New(cr)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	const clients = 32
	body := wireBatchBody(t, "storm", "ranking", "", false, []float64{0.2, 0.4, 0.6, 0.8})
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, data := postRaw(t, ts.URL+"/rankbatch", body, "application/json", "identity")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i] = data
		}()
	}
	close(start)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes than client 0", i)
		}
	}
	if got := cr.evals.Load(); got != 1 {
		t.Errorf("backend evaluated %d times under the storm, want exactly 1", got)
	}

	// Every client is exactly one of: byte-cache hit, flight leader, or
	// flight sharer.
	_, statsBody := get(t, ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	bc := st.Datasets["storm"].ByteCache
	if bc == nil {
		t.Fatal("stats missing byte_cache block")
	}
	if bc.Hits+bc.Flights+bc.Shared != clients {
		t.Errorf("hits %d + flights %d + shared %d ≠ %d clients", bc.Hits, bc.Flights, bc.Shared, clients)
	}
	if bc.Flights < 1 || bc.Shared < 1 {
		t.Errorf("storm produced no sharing: flights %d, shared %d", bc.Flights, bc.Shared)
	}
}

// TestServeWirePathDisabled: with the byte cache and single-flight off the
// server still answers correctly and /stats omits the byte_cache block.
func TestServeWirePathDisabled(t *testing.T) {
	s, _ := testServer(t, Options{ByteCacheCapacity: -1, DisableSingleFlight: true})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := reqBody(t, "iip", WireQuery{Metric: "prfe", Alpha: 0.5, Output: "ranking"})
	_, first := post(t, ts.URL+"/rank", body)
	_, second := post(t, ts.URL+"/rank", body)
	if !bytes.Equal(first, second) {
		t.Error("identical queries disagree with the wire path disabled")
	}
	_, statsBody := get(t, ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Datasets["iip"].ByteCache != nil {
		t.Error("byte_cache stats present though the byte cache is disabled")
	}
}

// TestServeStreamContext: a deadline that expires mid-stream truncates the
// response instead of hanging.
func TestServeStreamContext(t *testing.T) {
	cr := &stormRanker{Ranker: core.Prepare(datagen.IIPLike(64, 3))}
	s := New(Options{})
	if err := s.AddDataset("slow", engine.New(cr)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	alphas := make([]float64, 64)
	for i := range alphas {
		alphas[i] = float64(i+1) / 65
	}
	b, _ := json.Marshal(RankRequest{
		Dataset:   "slow",
		Query:     WireQuery{Metric: "prfe", Alphas: alphas, Output: "ranking"},
		Stream:    true,
		TimeoutMS: 90, // a few 20ms chunks, then the deadline cuts the grid
	})
	resp, data := postRaw(t, ts.URL+"/rankbatch", string(b), "application/json", "identity")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (stream starts before the deadline fires)", resp.StatusCode)
	}
	if json.Valid(data) {
		t.Error("mid-stream deadline should truncate the JSON body")
	}
	if !bytes.HasPrefix(data, []byte(`{"dataset":"slow","results":[`)) {
		t.Errorf("truncated stream has wrong prefix: %.60s", data)
	}
}

// TestByteCacheBounds exercises the LRU's entry and byte accounting.
func TestByteCacheBounds(t *testing.T) {
	c := newByteCache(4)
	c.capBytes = 1000
	body := func(n int) byteBody { return byteBody{bytes: bytes.Repeat([]byte{'x'}, n)} }
	for i := 0; i < 6; i++ {
		c.put(fmt.Sprintf("k%d", i), body(100))
	}
	st := c.stats()
	if st.Entries != 4 || st.Bytes != 400 || st.Evictions != 2 {
		t.Errorf("after entry-bound fill: %+v", st)
	}
	if _, ok := c.get("k0"); ok {
		t.Error("k0 should have been evicted")
	}
	if _, ok := c.get("k5"); !ok {
		t.Error("k5 should be resident")
	}
	// One 900-byte body forces byte-bound evictions of the older entries.
	c.put("big", body(900))
	st = c.stats()
	if st.Bytes > 1000 {
		t.Errorf("byte bound violated: %+v", st)
	}
	if _, ok := c.get("big"); !ok {
		t.Error("big should be resident")
	}
	// A body over the byte bound is refused outright.
	c.put("huge", body(2000))
	if _, ok := c.get("huge"); ok {
		t.Error("huge exceeds the byte bound and must not be cached")
	}
	// Replacing a key adjusts the byte account rather than double-counting.
	c.put("big", body(100))
	if st = c.stats(); st.Bytes > 1000 {
		t.Errorf("replace double-counted: %+v", st)
	}
	// A disabled cache (nil) is a no-op, never a panic.
	var nilCache *byteCache
	nilCache.put("k", body(1))
	if _, ok := nilCache.get("k"); ok {
		t.Error("nil cache returned a hit")
	}
}
