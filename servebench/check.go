package main

// Answer checks. Every served body is compared byte for byte against the
// direct path: store.Parse → Dataset.Engine → Engine.Rank/RankBatch →
// serve.FromResult(s), encoded the way the server encodes. Streamed
// bodies must reassemble to the buffered body; gzip bodies must inflate
// to it.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// checker evaluates requests on engines built straight from the input
// files, with no store segment, server or cache in between.
type checker struct {
	engines map[string]*engine.Engine
}

func newChecker(files []inputFile) (*checker, error) {
	c := &checker{engines: map[string]*engine.Engine{}}
	for _, f := range files {
		in, err := os.Open(f.path)
		if err != nil {
			return nil, err
		}
		ds, err := store.Parse(f.kind, in)
		in.Close()
		if err != nil {
			return nil, err
		}
		e, err := ds.Engine()
		if err != nil {
			return nil, err
		}
		c.engines[f.name] = e
	}
	return c, nil
}

// expect returns the identity body the server must send for r when the
// dataset is served under servedName.
func (c *checker) expect(r *request, servedName string) ([]byte, error) {
	q, err := r.q.ToQuery()
	if err != nil {
		return nil, err
	}
	e := c.engines[r.ds]
	var v any
	if r.path == "/rank" {
		res, err := e.Rank(context.Background(), q)
		if err != nil {
			return nil, err
		}
		v = serve.RankResponse{Dataset: servedName, WireResult: serve.FromResult(res)}
	} else {
		rs, err := e.RankBatch(context.Background(), q)
		if err != nil {
			return nil, err
		}
		v = serve.BatchResponse{Dataset: servedName, Results: serve.FromResults(rs)}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// matches reports whether a served body carries the expected answer.
func matches(r *request, got, want []byte) error {
	if r.gzip {
		zr, err := gzip.NewReader(bytes.NewReader(got))
		if err != nil {
			return fmt.Errorf("%s: gzip body: %w", r.class, err)
		}
		if got, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("%s: gzip body: %w", r.class, err)
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s %s: served body (%d bytes) differs from the direct path (%d bytes)",
			r.class, r.path, r.ds, len(got), len(want))
	}
	return nil
}
