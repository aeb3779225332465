package serve

// Streamed /rankbatch: instead of materializing the full grid and buffering
// a ~1 MB JSON body, each grid-point result is evaluated, encoded and
// flushed as soon as it exists (chunked transfer encoding — net/http adds
// the chunking automatically once the handler flushes before returning).
// The emitted bytes are composed to be byte-identical to the buffered
// BatchResponse encoding, so reassembling a streamed response reproduces
// the buffered body exactly — that equivalence is certified by the tests
// and by scripts/serve_smoke.sh.
//
// Streaming trades the byte cache and the encode-once batch for first-byte
// latency, so it bypasses every cache and the single-flight latch: each
// streamed request evaluates on the dataset's uncached engine
// (Engine.RankBatchStream), one grid point at a time, which also means a
// context cut mid-grid stops the remaining evaluation immediately. Mid-stream failures cannot be turned
// into an error status — the 200 header is already on the wire — so the
// stream is truncated instead, which a client detects as unterminated JSON.

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/engine"
)

// flushWriter pairs the response writer with its flusher; httptest
// recorders and net/http's real writer both implement http.Flusher.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) flush() {
	if fw.f != nil {
		fw.f.Flush()
	}
}

// streamBatch answers POST /rankbatch with "stream": true.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, d *dataset, timeoutMS int64, q engine.Query) {
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()

	fw := flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Vary", "Accept-Encoding")
	wantGzip := acceptsGzip(r)
	var out io.Writer = w
	var zw *gzip.Writer
	if wantGzip {
		h.Set("Content-Encoding", "gzip")
		zw = gzipPool.Get().(*gzip.Writer)
		zw.Reset(w)
		defer gzipPool.Put(zw)
		out = zw
	}

	// The prefix/separator/suffix bytes below mirror json.Encoder on a
	// BatchResponse value; json.Marshal per element matches the encoder's
	// element encoding, so the concatenation is the buffered body.
	started := false
	err := d.eng.RankBatchStream(ctx, q, func(r *engine.Result) error {
		b, err := json.Marshal(FromResult(r))
		if err != nil {
			return err
		}
		if !started {
			started = true
			name, err := json.Marshal(d.name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, `{"dataset":%s,"results":[`, name)
		} else {
			if _, err := out.Write([]byte{','}); err != nil {
				return err
			}
		}
		if _, err := out.Write(b); err != nil {
			return err
		}
		if zw != nil {
			if err := zw.Flush(); err != nil {
				return err
			}
		}
		fw.flush()
		return nil
	})
	if err != nil {
		if !started {
			// Nothing on the wire yet: undo the streaming headers and
			// answer with the uniform JSON error instead.
			h.Del("Content-Encoding")
			writeEngineError(w, err)
			return
		}
		return // mid-stream: truncate
	}
	if !started {
		// RankBatchStream validates a non-empty grid, so success always
		// emitted at least one element; guard anyway.
		name, _ := json.Marshal(d.name)
		fmt.Fprintf(out, `{"dataset":%s,"results":[`, name)
	}
	_, _ = out.Write([]byte("]}\n"))
	if zw != nil {
		_ = zw.Close()
	}
	fw.flush()
}
