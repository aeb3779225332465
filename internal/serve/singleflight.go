package serve

// The buffered response path: byte cache → per-key single-flight → encode
// (→ gzip). Every buffered /rank and /rankbatch answer funnels through
// Server.respond, which tries the encoded-byte cache first, then collapses
// concurrent identical cold requests into one evaluation + one encode via
// the dataset's flight group (reusing engine.FlightGroup — same latch
// semantics at both layers), and only then runs the engine.
//
// Byte-cache keys are composed as prefix|encoding|Query.CacheKey, where the
// prefix separates /rank ("R") from buffered /rankbatch ("B") and columnar
// /rankbatch ("C") keyspaces, and the encoding tag ("gz"/"id") keeps the
// gzip and identity variants of one query as distinct entries — a cache
// that ignored encoding would serve compressed bytes to a client that
// cannot decode them.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
)

// gzipMinSize is the smallest body worth compressing: below this the gzip
// header/trailer and the client's inflate outweigh the byte savings, so the
// identity bytes are served (and cached) even when gzip was negotiated.
const gzipMinSize = 1024

// gzipPool recycles gzip writers; BestSpeed because the wire win we are
// after is latency, and level-9's extra ratio on JSON number soup is small.
var gzipPool = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return zw
	},
}

// acceptsGzip reports whether the client's Accept-Encoding admits gzip
// (RFC 9110 §12.5.3): gzip listed with a non-zero qvalue, or, when gzip is
// not listed, "*" with a non-zero qvalue. Codings and the q parameter
// compare case-insensitively (§8.4.1, §12.4.2); a member whose qvalue does
// not parse is ignored, and the first member naming gzip (or *) decides.
func acceptsGzip(r *http.Request) bool {
	star := -1 // q of "*" in thousandths; -1 until one is listed
	for _, field := range r.Header["Accept-Encoding"] {
		for field != "" {
			var member string
			member, field, _ = strings.Cut(field, ",")
			coding, params, _ := strings.Cut(member, ";")
			coding = strings.TrimSpace(coding)
			isGzip := strings.EqualFold(coding, "gzip")
			if !isGzip && coding != "*" {
				continue
			}
			q, ok := weight(params)
			switch {
			case !ok:
			case isGzip:
				return q > 0
			case star < 0:
				star = q
			}
		}
	}
	return star > 0
}

// weight reads the q parameter from a member's ";"-separated parameters,
// in thousandths: 1000 when there is none, ok false when it is not a
// qvalue ("0" or "1", then optionally "." and up to three digits, at most
// 1).
func weight(params string) (q int, ok bool) {
	for params != "" {
		var param string
		param, params, _ = strings.Cut(params, ";")
		name, v, _ := strings.Cut(strings.TrimSpace(param), "=")
		if !strings.EqualFold(strings.TrimSpace(name), "q") {
			continue
		}
		v = strings.TrimSpace(v)
		if v == "" || (v[0] != '0' && v[0] != '1') {
			return 0, false
		}
		q = int(v[0]-'0') * 1000
		frac := v[1:]
		if frac == "" {
			return q, true
		}
		if frac[0] != '.' || len(frac) > 4 {
			return 0, false
		}
		for i, scale := 1, 100; i < len(frac); i, scale = i+1, scale/10 {
			c := frac[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			q += int(c-'0') * scale
		}
		return q, q <= 1000
	}
	return 1000, true
}

// byteKey composes the byte-cache / flight key for one buffered response.
func byteKey(prefix string, wantGzip bool, qkey string) string {
	enc := "id"
	if wantGzip {
		enc = "gz"
	}
	return prefix + "|" + enc + "|" + qkey
}

// encodeBody encodes v exactly as writeJSON would (json.Encoder, trailing
// newline — the smoke test diffs these bytes against `prfserve -oneshot`)
// and optionally gzips the result.
func encodeBody(v any, wantGzip bool) (byteBody, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return byteBody{}, err
	}
	raw := buf.Bytes()
	if !wantGzip || len(raw) < gzipMinSize {
		return newByteBody(raw, false), nil
	}
	var zbuf bytes.Buffer
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&zbuf)
	_, werr := zw.Write(raw)
	cerr := zw.Close()
	gzipPool.Put(zw)
	if werr != nil {
		return byteBody{}, werr
	}
	if cerr != nil {
		return byteBody{}, cerr
	}
	return newByteBody(zbuf.Bytes(), true), nil
}

// Header values shared by every buffered answer. writeBody stores these
// slices in the header map directly, which Header().Set would allocate
// afresh for each response; net/http only reads them.
var (
	headerJSON = []string{"application/json"}
	headerVary = []string{"Accept-Encoding"}
	headerGzip = []string{"gzip"}
)

// writeBody emits a cached-or-fresh encoded body as the 200 answer.
func writeBody(w http.ResponseWriter, b byteBody) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["Vary"] = headerVary
	if b.gzipped {
		h["Content-Encoding"] = headerGzip
	}
	h["Content-Length"] = b.length
	_, _ = w.Write(b.bytes)
}

// respond drives the buffered hot path for one request: byte-cache get →
// deadline → single-flight{byte-cache peek → build → encode → put} → write.
// The per-request deadline context (timeoutMS, as requestContext reads it)
// is derived only after the byte cache misses: a hit writes stored bytes
// and never waits on anything. build evaluates the query and returns the
// response value to encode; it runs at most once per key across all
// concurrent callers (unless single-flight is disabled). A key of ""
// bypasses both the cache and the latch.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, d *dataset, timeoutMS int64, key string, wantGzip bool, build func(context.Context) (any, error)) {
	if key != "" {
		if body, ok := d.bytes.get(key); ok {
			writeBody(w, body)
			return
		}
	}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	fill := func() (any, error) {
		if body, ok := d.bytes.peek(key); ok {
			return body, nil
		}
		v, err := build(ctx)
		if err != nil {
			return nil, err
		}
		body, err := encodeBody(v, wantGzip)
		if err != nil {
			return nil, err
		}
		if key != "" {
			d.bytes.put(key, body)
		}
		return body, nil
	}
	var got any
	var err error
	if key == "" || s.opts.DisableSingleFlight {
		got, err = fill()
	} else {
		got, err = d.flight.Do(ctx, key, fill)
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeBody(w, got.(byteBody))
}
