package main

// The serving fixture: ingest through the store, serve over a loopback
// listener, and talk to it from one client connection.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

const adminToken = "servebench-admin"

// harness is one ingested store served by one in-process server.
type harness struct {
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
	clock  *hostClock
	names  map[string]string // dataset → name it is served under
	steps  map[string]float64
}

// writeInputs stores the generated files under dir/in and drops their
// bytes from memory: every ingest, refresh and check reads the files, so
// the live heap holds no copy of the inputs.
func writeInputs(dir string, files []inputFile) error {
	if err := os.MkdirAll(filepath.Join(dir, "in"), 0o755); err != nil {
		return err
	}
	for i := range files {
		f := &files[i]
		f.path = filepath.Join(dir, "in", f.name+"."+f.kind)
		if err := os.WriteFile(f.path, f.body, 0o644); err != nil {
			return err
		}
		f.body = nil
	}
	return nil
}

// ingest parses every input file, imports it into a fresh store at
// storeDir, installs it in a new server, starts serving, and waits for
// one answer from every dataset. Untraced, datasets are installed with
// Server.InstallFromStore. Traced, each is opened with Store.OpenEngine,
// its ranker wrapped in a tracedRanker, and registered with AddDataset
// under "<name>.g<generation>" (AddDataset refuses to replace a name).
// steps records parse/import/open milliseconds per dataset kind.
func ingest(storeDir string, files []inputFile, tr *tracer) (*harness, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	h := &harness{
		st:    st,
		srv:   serve.New(serve.Options{Store: st, AdminToken: adminToken}),
		tr:    tr,
		names: map[string]string{},
		steps: map[string]float64{},
	}
	for _, f := range files {
		t := time.Now()
		in, err := os.Open(f.path)
		if err != nil {
			return nil, err
		}
		ds, err := store.Parse(f.kind, in)
		in.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", f.name, err)
		}
		h.steps["store.parse_ms."+f.kind] += msOf(time.Since(t))
		t = time.Now()
		if _, err := st.Import(f.name, ds); err != nil {
			return nil, err
		}
		h.steps["store.import_ms."+f.kind] += msOf(time.Since(t))
		t = time.Now()
		if err := h.install(f.name); err != nil {
			return nil, err
		}
		h.steps["store.open_ms."+f.kind] += msOf(time.Since(t))
	}
	if err := h.listen(); err != nil {
		return nil, err
	}
	for _, f := range files {
		if err := h.firstAnswer(f); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

// install makes the stored dataset servable (see ingest).
func (h *harness) install(name string) error {
	if h.tr == nil {
		h.names[name] = name
		return h.srv.InstallFromStore(name)
	}
	e, info, err := h.st.OpenEngine(name)
	if err != nil {
		return err
	}
	alias := fmt.Sprintf("%s.g%d", name, info.Generation)
	r := e.Ranker()
	wrapped := &tracedRanker{r: r, backend: backendOf(r), t: h.tr}
	if err := h.srv.AddDataset(alias, engine.New(wrapped)); err != nil {
		return err
	}
	h.names[name] = alias
	return nil
}

func (h *harness) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var handler http.Handler = h.srv
	if h.tr != nil {
		handler = h.tr.handler(h.srv)
	}
	h.hs = &http.Server{Handler: handler}
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	// One connection: the closed loop never has two requests in flight.
	h.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return nil
}

// firstAnswer asks one cheap top-k question of a freshly installed
// dataset: a one-point sweep on independent tables (the lazy view's
// score-prefix path), a single PRFe top-k elsewhere.
func (h *harness) firstAnswer(f inputFile) error {
	r := &request{path: "/rank", ds: f.name, q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: 0.9, K: 10}}
	if f.kind == "ind" {
		r = &request{path: "/rankbatch", ds: f.name, q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: []float64{0.9}, K: 10}}
	}
	res := h.send(r, h.body(r))
	if res.err != nil {
		return fmt.Errorf("first answer from %s: %w", f.name, res.err)
	}
	return nil
}

// close stops the server and waits for its serve loop to return.
func (h *harness) close() {
	if h.hs == nil {
		return
	}
	_ = h.hs.Close()
	<-h.served
	h.client.CloseIdleConnections()
	h.hs = nil
}

// request is one read: an endpoint, a logical dataset and a wire query.
type request struct {
	class  string
	path   string // "/rank" or "/rankbatch"
	ds     string
	q      serve.WireQuery
	gzip   bool
	stream bool
}

// body encodes the request for the name the dataset is served under.
func (h *harness) body(r *request) []byte {
	b, err := json.Marshal(serve.RankRequest{Dataset: h.names[r.ds], Query: r.q, Stream: r.stream})
	if err != nil {
		panic(err) // a WireQuery of plain numbers always marshals
	}
	return b
}

// result is one completed exchange.
type result struct {
	body []byte
	wall time.Duration
	span spanRecord
	err  error
}

// send POSTs one read and reads the whole response. The Accept-Encoding
// header is always explicit, so the transport neither negotiates gzip on
// its own nor inflates bodies behind the client's back.
func (h *harness) send(r *request, body []byte) result {
	req, err := http.NewRequest(http.MethodPost, h.base+r.path, bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "identity")
	if r.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	return h.exchange(req)
}

func (h *harness) exchange(req *http.Request) result {
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return result{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{body: b, wall: time.Since(start), err: err}
	if h.tr != nil {
		res.span = h.tr.span()
	}
	if res.err == nil && resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return res
}

// refresh re-imports one dataset through the admin endpoint and returns
// the generation the store assigned. Traced, the new generation is also
// registered under its alias and the previous alias dropped.
func (h *harness) refresh(f inputFile) (uint64, result) {
	body, err := os.Open(f.path)
	if err != nil {
		return 0, result{err: err}
	}
	defer body.Close()
	req, err := http.NewRequest(http.MethodPost, h.base+"/datasets/"+f.name+"?kind="+f.kind, body)
	if err != nil {
		return 0, result{err: err}
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	req.Header.Set("Accept-Encoding", "identity")
	res := h.exchange(req)
	if res.err != nil {
		return 0, res
	}
	var info store.Info
	if err := json.Unmarshal(res.body, &info); err != nil {
		res.err = fmt.Errorf("admin import response: %w", err)
		return 0, res
	}
	if h.tr != nil {
		old := h.names[f.name]
		if err := h.install(f.name); err != nil {
			res.err = err
			return 0, res
		}
		del, err := http.NewRequest(http.MethodDelete, h.base+"/datasets/"+old, nil)
		if err != nil {
			res.err = err
			return 0, res
		}
		del.Header.Set("Authorization", "Bearer "+adminToken)
		if d := h.exchange(del); d.err != nil {
			res.err = d.err
		}
	}
	return info.Generation, res
}

// stats reads GET /stats.
func (h *harness) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	req, err := http.NewRequest(http.MethodGet, h.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	req.Header.Set("Accept-Encoding", "identity")
	res := h.exchange(req)
	if res.err != nil {
		return st, res.err
	}
	if err := json.Unmarshal(res.body, &st); err != nil {
		return st, errors.New("stats: " + err.Error())
	}
	return st, nil
}

// counters are the cache counters /stats reports for one dataset.
type counters struct {
	byteHits, byteMisses, shared, engHits, engMisses int64
}

func (c counters) add(o counters) counters {
	return counters{c.byteHits + o.byteHits, c.byteMisses + o.byteMisses, c.shared + o.shared,
		c.engHits + o.engHits, c.engMisses + o.engMisses}
}

func (c counters) sub(o counters) counters {
	return counters{c.byteHits - o.byteHits, c.byteMisses - o.byteMisses, c.shared - o.shared,
		c.engHits - o.engHits, c.engMisses - o.engMisses}
}

// counters reads the cache counters of every served dataset by name.
func (h *harness) counters() (map[string]counters, error) {
	st, err := h.stats()
	if err != nil {
		return nil, err
	}
	out := map[string]counters{}
	for name, d := range st.Datasets {
		var c counters
		if d.ByteCache != nil {
			c.byteHits, c.byteMisses, c.shared = d.ByteCache.Hits, d.ByteCache.Misses, d.ByteCache.Shared
		}
		if d.Cache != nil {
			c.engHits, c.engMisses = d.Cache.Hits, d.Cache.Misses
		}
		out[name] = c
	}
	return out, nil
}

// counterTotal keeps cache counters monotone across refreshes: a new
// generation starts its counters at zero, so the old generation's final
// counts are retired into a running sum just before each refresh.
type counterTotal struct {
	retired counters
}

func (ct *counterTotal) total(cur map[string]counters) counters {
	t := ct.retired
	for _, c := range cur {
		t = t.add(c)
	}
	return t
}

func (ct *counterTotal) retire(cur map[string]counters, name string) {
	ct.retired = ct.retired.add(cur[name])
}
