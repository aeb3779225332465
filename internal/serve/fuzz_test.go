package serve

// Fuzz target for the wire-form query decoder: arbitrary bytes through
// json.Unmarshal + WireQuery.ToQuery must never panic, every rejection must
// be a typed serve-prefixed error, and every accepted query must be
// cacheable (the wire form cannot express MetricPRF, the only uncacheable
// metric). Run with: go test ./internal/serve -fuzz FuzzWireQueryDecode

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pdb"
)

func FuzzWireQueryDecode(f *testing.F) {
	seeds := []string{
		`{"metric":"prfe","alpha":0.5}`,
		`{"metric":"prfe","alphas":[0.1,0.9],"output":"ranking"}`,
		`{"metric":"prfomega","weights":[3,2,1]}`,
		`{"metric":"pth","h":4,"output":"topk","k":3}`,
		`{"metric":"erank"}`,
		`{"metric":"prfecombo","terms":[{"u":[1,0],"alpha":[0.9,0]}]}`,
		`{"metric":"prf"}`,
		`{"metric":"nope","output":"sideways"}`,
		`{"metric":"prfe","alpha":1e309}`,
		`{"metric":"prfe","k":-1}`,
		`{}`,
		`null`,
		`[]`,
		`{"metric":42}`,
		`{"metric":"prfe","terms":[{"u":[null,0]}]}`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireQuery
		if err := json.Unmarshal(data, &w); err != nil {
			return // not a WireQuery at all; nothing to decode
		}
		q, err := w.ToQuery()
		if err != nil {
			if !strings.HasPrefix(err.Error(), "serve:") {
				t.Fatalf("untyped decode error %q for input %q", err, data)
			}
			return
		}
		if _, ok := q.CacheKey(); !ok {
			t.Fatalf("wire query decoded to an uncacheable engine query: %q", data)
		}
	})
}

// FuzzColumnarRows certifies the columnar result path: for any batch of
// homogeneous engine results decoded from the fuzz input, the columnar wire
// form — including a JSON round trip, the shape a client actually receives
// — must invert back through Rows() to exactly the per-grid-point results
// array. Run with: go test ./internal/serve -fuzz FuzzColumnarRows
func FuzzColumnarRows(f *testing.F) {
	f.Add([]byte{0, 2, 0x10, 0x20, 0x30})
	f.Add([]byte{1, 3, 0xff, 0x00, 0x7f, 0x40})
	f.Add([]byte{2, 1, 0x05, 0x04, 0x03, 0x02, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		shape := data[0] % 3
		width := int(data[1])%3 + 1 // tuples per result
		payload := data[2:]
		var rs []engine.Result
		for i := 0; i+width <= len(payload) && len(rs) < 8; i += width {
			r := engine.Result{Metric: engine.MetricPRFe, Alpha: float64(payload[i]) / 16}
			switch shape {
			case 0:
				r.Values = make([]float64, width)
				for j := range r.Values {
					r.Values[j] = float64(payload[i+j]) / 4
				}
			case 1:
				r.Complex = make([]complex128, width)
				for j := range r.Complex {
					r.Complex[j] = complex(float64(payload[i+j])/4, float64(payload[i+j]%8))
				}
			case 2:
				r.Ranking = make(pdb.Ranking, width)
				for j := range r.Ranking {
					r.Ranking[j] = pdb.TupleID(payload[i+j])
				}
			}
			rs = append(rs, r)
		}
		want := FromResults(rs)
		col := FromResultsColumnar("fuzz", rs)

		// Direct inversion.
		if got := col.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Rows() != FromResults():\n got %+v\nwant %+v", got, want)
		}
		// Inversion after the JSON round trip a client performs.
		enc, err := json.Marshal(col)
		if err != nil {
			t.Fatal(err)
		}
		var dec ColumnarBatch
		if err := json.Unmarshal(enc, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Dataset != "fuzz" || dec.Format != "columnar" {
			t.Fatalf("framing lost in round trip: %+v", dec)
		}
		if got := dec.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded Rows() != FromResults():\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzRankRequestDecode holds the one-pass request scanner to its rule:
// whenever it takes a body, encoding/json with DisallowUnknownFields — the
// decoder every other body goes to — takes that body too and decodes the
// same RankRequest. The whole decode, scanner or fallback, under a small
// body limit, must also answer each body exactly as encoding/json reading
// the bounded body alone: the same request or the same error text. Run
// with: go test ./internal/serve -fuzz FuzzRankRequestDecode
func FuzzRankRequestDecode(f *testing.F) {
	const limit = 512
	seeds := []string{
		// What json.Marshal of a RankRequest sends (servebench's reads).
		`{"dataset":"ind-1","query":{"metric":"prfe","output":"topk","alpha":0.9,"k":10}}`,
		`{"dataset":"ind-1","query":{"metric":"prfe","output":"topk","alphas":[0.05,0.2,0.35,0.5,0.65,0.8,0.9,0.99],"k":10}}`,
		`{"dataset":"xrel-1","query":{"metric":"pth","output":"topk","h":10,"k":10}}`,
		`{"dataset":"ind-1","query":{"metric":"medianrank","output":"topk","k":1999},"stream":true}`,
		`{"dataset":"ind-1","query":{"metric":"prfe","alpha":1e-7},"timeout_ms":250,"format":"columnar"}`,
		` {"dataset" : "a" , "query":{ "weights" : [ 1 , 2.5 , -3e2 ] } } ` + "\n",
		`{"dataset":"a","dataset":"b"}`,
		`{"query":{"k":1,"k":2}}`,
		`{"Dataset":"a","QUERY":{"Metric":"prfe"}}`,
		`{"query":{"alphas":[],"weights":[]}}`,
		`{"query":{"k":1.0}}`,
		`{"query":{"k":01}}`,
		`{"query":{"alpha":1e400}}`,
		`{"query":{"h":-9223372036854775809}}`,
		`{} x`,
		`{}{}`,
		`null`,
		`{"query":null,"dataset":null}`,
		`{"dataset":"\u0069ip","query":{"metric":"pr\"fe"}}`,
		`{"query":{"metric":"prfecombo","terms":[{"u":[1,0],"alpha":[0.9,0]}]}}`,
		`{"dataset":"a",`,
		``,
		// Bodies over the limit. encoding/json takes a value that ends
		// before the limit without reading the excess, so the first two
		// decode, and the rest are too_large.
		`{"dataset":"a"}` + strings.Repeat(" ", limit),
		`{"dataset":"a"}` + strings.Repeat("x", limit),
		strings.Repeat(" ", limit) + `{"dataset":"a"}`,
		`{"query":{"metric":"prfomega","weights":[` + strings.Repeat("0.125,", limit/6) + `1]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got RankRequest
		if scanRequest(data, &got) {
			var want RankRequest
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("scanner took %q, encoding/json refused it: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q:\n scan %+v\n json %+v", data, got, want)
			}
		}
		sameDecode(t, data, limit)
	})
}

// oldDecode is the request decode as it was before the scanner: encoding/
// json reading the bounded body itself.
func oldDecode(body []byte, limit int64) (RankRequest, error) {
	var req RankRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// newDecode is decodeRequest's body handling.
func newDecode(body []byte, limit int64) (RankRequest, error) {
	var req RankRequest
	err := decodeBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit), &req)
	return req, err
}

// sameDecode checks that the decode pipeline answers body exactly as the
// old encoding/json decode did: the same request, or the same error text.
func sameDecode(t *testing.T, body []byte, limit int64) {
	t.Helper()
	want, werr := oldDecode(body, limit)
	got, gerr := newDecode(body, limit)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("body %q (limit %d): error %v, want %v", body, limit, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q (limit %d):\n got %+v\nwant %+v", body, limit, got, want)
	}
}
