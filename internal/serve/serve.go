// Package serve is the HTTP front end of the unified ranking engine — the
// ROADMAP's serving layer. One Server holds a set of named, immutable
// datasets (each already prepared into its fastest backend view and wrapped
// in an engine.Engine), routes declarative JSON queries to the right
// backend, enforces per-request deadlines through the engines' context
// plumbing, and memoizes hot queries in exactly one cache per dataset: the
// encoded-byte cache, so a hot hit is one Write with no re-encode
// (bytecache.go). Only when that cache is disabled does a dataset get an
// engine-level result cache instead — holding both would store every
// buffered answer twice, once as a Result and once as its bytes. Concurrent
// identical cold requests collapse into one evaluation + one encode through
// per-key single-flight latches (singleflight.go), POST /rankbatch can
// stream each grid point as it is computed (stream.go), responses negotiate
// Accept-Encoding: gzip, and large grids can ask for a compact columnar
// payload ("format": "columnar").
//
// Endpoints:
//
//	POST /rank       {"dataset": name, "query": {...}, "timeout_ms": n}
//	POST /rankbatch  same body; query.alphas is the α grid; plus
//	                 "stream": true and "format": "columnar"
//	GET  /datasets   the loaded datasets (name, model, size, cache on/off)
//	GET  /stats      request, cache, byte-cache and single-flight counters
//	GET  /healthz    liveness
//
// A server built over a dataset store (Options.Store) additionally speaks
// the authenticated admin lifecycle (Bearer Options.AdminToken):
//
//	POST   /datasets/{name}?kind=K  import/replace a dataset (body = CSV/JSON)
//	DELETE /datasets/{name}         drop a dataset from server and store
//	GET    /datasets/{name}/info    kind, generation, cache counters
//
// POST bodies must declare Content-Type: application/json (or a +json
// subtype); admin imports are raw dataset files and skip that check. Every
// error is a JSON body with a stable code and the matching HTTP status:
// bad_request 400, unauthorized 401, admin_disabled 403, unknown_dataset
// and not_found 404, method_not_allowed 405, too_large 413,
// unsupported_media_type 415, deadline_exceeded 504, store_error 500.
// Dataset views stay immutable — a refresh installs a brand-new dataset
// (fresh engine + caches, next store generation) behind the name with one
// atomic pointer swap, in-flight queries finish on the old view, and
// neither cache ever needs item-level invalidation: a generation's caches
// live exactly as long as its view.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/store"
)

// Options configures a Server.
type Options struct {
	// DefaultTimeout bounds requests that carry no timeout_ms; zero means
	// no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (and the default); zero
	// means no clamp.
	MaxTimeout time.Duration
	// CacheCapacity is the per-dataset engine-level result-cache entry
	// bound: 0 takes engine.DefaultCacheCapacity, negative disables it. The
	// result cache exists only while the byte cache is disabled
	// (ByteCacheCapacity < 0); with the byte cache on, this field is unused.
	CacheCapacity int
	// ByteCacheCapacity is the per-dataset response-byte-cache entry bound:
	// 0 takes DefaultByteCacheCapacity, negative disables the byte cache and
	// hands memoization to the engine-level result cache (CacheCapacity).
	ByteCacheCapacity int
	// DisableSingleFlight turns off the per-key latches that collapse
	// concurrent identical cold requests into one evaluation + encode.
	// Exists so the load benchmark can measure the latch; leave it off in
	// production.
	DisableSingleFlight bool
	// MaxBodyBytes bounds request bodies; 0 takes 1 MiB.
	MaxBodyBytes int64
	// Store, when set, backs the dataset-lifecycle admin endpoints: imports
	// persist there and installs re-open from it (so what is served is
	// provably what was stored).
	Store *store.Store
	// AdminToken authorizes the admin endpoints via Authorization: Bearer.
	// Empty leaves them disabled (typed 403) — there is no default secret.
	AdminToken string
	// MaxAdminBodyBytes bounds admin dataset uploads; 0 takes 64 MiB.
	MaxAdminBodyBytes int64
}

const (
	defaultMaxBody      = 1 << 20
	defaultMaxAdminBody = 64 << 20
)

// dataset is one loaded, immutable dataset with its engine and wire-path
// state: at most one cache — the encoded-byte cache, or, when that is
// disabled, the engine-level result cache — and the serve-level
// single-flight group that collapses identical buffered requests.
type dataset struct {
	name   string
	model  string
	kind   string // store dataset kind; "" when registered directly
	gen    uint64 // store generation; 0 when registered directly
	eng    *engine.Engine
	cached *engine.CachedEngine // set only when the byte cache is disabled and CacheCapacity ≥ 0
	bytes  *byteCache           // nil when byte caching is disabled
	flight engine.FlightGroup
}

// rank evaluates through the result cache when one is attached.
func (d *dataset) rank(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if d.cached != nil {
		return d.cached.Rank(ctx, q)
	}
	return d.eng.Rank(ctx, q)
}

func (d *dataset) rankBatch(ctx context.Context, q engine.Query) ([]engine.Result, error) {
	if d.cached != nil {
		return d.cached.RankBatch(ctx, q)
	}
	return d.eng.RankBatch(ctx, q)
}

// Server is the HTTP front end. Datasets are registered before serving via
// AddDataset; the Server itself is an http.Handler. Safe for concurrent
// use.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	mu       sync.RWMutex
	datasets map[string]*dataset
	// loadErrors records datasets that failed to load or install, keyed by
	// name — the skip-and-report startup contract surfaces them on /stats
	// instead of aborting the server. A later successful install clears the
	// entry.
	loadErrors map[string]string

	// requests counts every /rank and /rankbatch attempt, including ones
	// rejected before evaluation — rejected traffic must stay visible on
	// /stats during incidents.
	requests atomic.Int64
}

// New builds an empty server with the given options.
func New(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBody
	}
	s := &Server{opts: opts, datasets: map[string]*dataset{}, loadErrors: map[string]string{}, start: time.Now()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /rank", s.handleRank)
	s.mux.HandleFunc("POST /rankbatch", s.handleRankBatch)
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /datasets/{name}", s.handleDatasetImport)
	s.mux.HandleFunc("DELETE /datasets/{name}", s.handleDatasetDelete)
	s.mux.HandleFunc("GET /datasets/{name}/info", s.handleDatasetInfo)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// endpointMethods maps every fixed path to its one allowed method, for the
// JSON 405/404 fallbacks in ServeHTTP.
var endpointMethods = map[string]string{
	"/rank":      http.MethodPost,
	"/rankbatch": http.MethodPost,
	"/datasets":  http.MethodGet,
	"/stats":     http.MethodGet,
	"/healthz":   http.MethodGet,
}

// allowedMethods reports the Allow set for a path, covering the wildcard
// admin routes the endpointMethods table cannot.
func allowedMethods(path string) (string, bool) {
	if m, ok := endpointMethods[path]; ok {
		return m, true
	}
	rest, ok := strings.CutPrefix(path, "/datasets/")
	if !ok || rest == "" {
		return "", false
	}
	if name, isInfo := strings.CutSuffix(rest, "/info"); isInfo && name != "" && !strings.Contains(name, "/") {
		return http.MethodGet, true
	}
	if !strings.Contains(rest, "/") {
		return "POST, DELETE", true
	}
	return "", false
}

// AddDataset registers a prepared dataset under a unique name. The model
// label is inferred from the engine's backend. Engines must not be shared
// across names (each name owns its cache).
func (s *Server) AddDataset(name string, e *engine.Engine) error {
	if name == "" {
		return errors.New("serve: dataset name must be non-empty")
	}
	if e == nil || e.Ranker() == nil {
		return fmt.Errorf("serve: dataset %q has no engine", name)
	}
	d := s.newDataset(name, e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	s.datasets[name] = d
	delete(s.loadErrors, name)
	return nil
}

// newDataset builds a dataset entry with its own fresh cache generation —
// every install goes through here, so counters always start at zero for a
// new view. The engine-level result cache is built only without a byte
// cache: above a byte cache it would hold a second copy of every buffered
// answer and serve nothing the byte cache misses but a gzip/identity or
// columnar sibling of the same query.
func (s *Server) newDataset(name string, e *engine.Engine) *dataset {
	d := &dataset{name: name, model: modelName(e.Ranker()), eng: e}
	d.bytes = newByteCache(s.opts.ByteCacheCapacity)
	if d.bytes == nil && s.opts.CacheCapacity >= 0 {
		d.cached = engine.NewCached(e, s.opts.CacheCapacity)
	}
	return d
}

// RecordLoadError reports a dataset that failed to load at startup; it
// appears under load_errors on /stats until a later install of the same
// name succeeds. The skip-and-report startup path in cmd/prfserve uses
// this so one broken file no longer takes the whole server down.
func (s *Server) RecordLoadError(name string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadErrors[name] = err.Error()
}

// InstallFromStore (re)opens one dataset from the configured store and
// atomically swaps it in under its name: a brand-new immutable view with
// brand-new engine/byte caches. In-flight queries keep the old view;
// the old generation's caches retire with it.
func (s *Server) InstallFromStore(name string) error {
	if s.opts.Store == nil {
		return errors.New("serve: no dataset store configured")
	}
	e, info, err := s.opts.Store.OpenEngine(name)
	if err != nil {
		return err
	}
	d := s.newDataset(name, e)
	d.kind, d.gen = info.Kind, info.Generation
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = d
	delete(s.loadErrors, name)
	return nil
}

// modelName labels the correlation model behind a Ranker.
func modelName(r engine.Ranker) string {
	switch r.(type) {
	case *core.Prepared, *store.LazyPrepared:
		return "independent"
	case *andxor.PreparedTree:
		return "andxor"
	case *junction.PreparedNetwork:
		return "network"
	case *junction.PreparedChain:
		return "chain"
	default:
		return "custom"
	}
}

func (s *Server) dataset(name string) (*dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

// ServeHTTP implements http.Handler. Requests the mux cannot route — wrong
// method on a known path, unknown path — get the same JSON error shape as
// everything else instead of net/http's plain-text defaults.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		if methods, known := allowedMethods(r.URL.Path); known {
			w.Header().Set("Allow", methods)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("serve: %s %s: use %s", r.Method, r.URL.Path, methods))
			return
		}
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("serve: no such endpoint %s (have /rank, /rankbatch, /datasets, /datasets/{name}, /stats, /healthz)", r.URL.Path))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Code: code})
}

// writeJSON emits a 200 with the JSON body. Encoding errors at this point
// mean the client is gone (headers are already written); nothing to do.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// checkContentType enforces JSON request bodies on the POST endpoints: the
// declared media type must be application/json or a +json subtype. Anything
// else — including a missing or unparseable Content-Type — is a typed 415,
// not a generic decode 400: a client POSTing a form or protobuf body should
// learn what the endpoint speaks, not that its bytes failed to parse.
func checkContentType(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err == nil && (mt == "application/json" || strings.HasSuffix(mt, "+json")) {
		return true
	}
	writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
		fmt.Sprintf("serve: Content-Type %q is not JSON (send application/json)", ct))
	return false
}

// decodeRequest parses and validates the shared request envelope, resolving
// the dataset. A nil *dataset return means the error was already written.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*RankRequest, *dataset) {
	if !checkContentType(w, r) {
		return nil, nil
	}
	var req RankRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("serve: request body exceeds %d bytes", tooLarge.Limit))
			return nil, nil
		}
		writeError(w, http.StatusBadRequest, "bad_request", "serve: malformed request JSON: "+err.Error())
		return nil, nil
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("serve: negative timeout_ms %d", req.TimeoutMS))
		return nil, nil
	}
	d, ok := s.dataset(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset",
			fmt.Sprintf("serve: unknown dataset %q (GET /datasets lists the loaded ones)", req.Dataset))
		return nil, nil
	}
	return &req, d
}

// requestContext derives the per-request deadline context: the client's
// timeout_ms (else the server default), clamped by MaxTimeout. A server
// with no default and no client timeout imposes no deadline — MaxTimeout
// only bounds deadlines that exist, it never creates one.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (ctx context.Context, cancel context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	if s.opts.MaxTimeout > 0 && d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// writeEngineError maps evaluation errors onto statuses: context deadline
// and cancellation are 504 (the request-scoped work was cut off), anything
// else the engines return is a query-validation failure, 400.
func writeEngineError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "serve: "+err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", "serve: "+err.Error())
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, d := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	if req.Stream || req.Format != "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			"serve: stream and format apply to /rankbatch only")
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	wantGzip := acceptsGzip(r)
	key := ""
	if qkey, ok := q.CacheKey(); ok {
		key = byteKey("R", wantGzip, qkey)
	}
	s.respond(ctx, w, d, key, wantGzip, func(ctx context.Context) (any, error) {
		res, err := d.rank(ctx, q)
		if err != nil {
			return nil, err
		}
		return RankResponse{Dataset: d.name, WireResult: FromResult(res)}, nil
	})
}

func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, d := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	prefix := "B"
	switch req.Format {
	case "", "results":
	case "columnar":
		prefix = "C"
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("serve: unknown format %q (want results|columnar)", req.Format))
		return
	}
	if req.Stream {
		if prefix == "C" {
			writeError(w, http.StatusBadRequest, "bad_request",
				"serve: streamed responses use the results format, not columnar")
			return
		}
		s.streamBatch(w, r, d, req, q)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	wantGzip := acceptsGzip(r)
	key := ""
	if qkey, ok := q.CacheKey(); ok {
		key = byteKey(prefix, wantGzip, qkey)
	}
	s.respond(ctx, w, d, key, wantGzip, func(ctx context.Context) (any, error) {
		res, err := d.rankBatch(ctx, q)
		if err != nil {
			return nil, err
		}
		if prefix == "C" {
			return FromResultsColumnar(d.name, res), nil
		}
		return BatchResponse{Dataset: d.name, Results: FromResults(res)}, nil
	})
}

// DatasetInfo is one row of GET /datasets (and the body of
// GET /datasets/{name}/info).
type DatasetInfo struct {
	Name   string `json:"name"`
	Model  string `json:"model"`
	Tuples int    `json:"tuples"`
	// Cached reports whether repeated queries are memoized (by the byte
	// cache or, when that is disabled, the engine-level result cache).
	Cached bool `json:"cached"`
	// Kind and Generation identify the stored snapshot behind the view;
	// both are absent for datasets registered directly via AddDataset.
	Kind       string `json:"kind,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
}

func (d *dataset) info() DatasetInfo {
	return DatasetInfo{
		Name:       d.name,
		Model:      d.model,
		Tuples:     d.eng.Ranker().Len(),
		Cached:     d.bytes != nil || d.cached != nil,
		Kind:       d.kind,
		Generation: d.gen,
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for _, d := range s.datasets {
		infos = append(infos, d.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, infos)
}

// DatasetStats is the per-dataset block of GET /stats.
type DatasetStats struct {
	Model      string             `json:"model"`
	Tuples     int                `json:"tuples"`
	Kind       string             `json:"kind,omitempty"`
	Generation uint64             `json:"generation,omitempty"`
	Cache      *engine.CacheStats `json:"cache,omitempty"`
	ByteCache  *ByteCacheStats    `json:"byte_cache,omitempty"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeMS int64                   `json:"uptime_ms"`
	Requests int64                   `json:"requests"`
	Datasets map[string]DatasetStats `json:"datasets"`
	// LoadErrors lists datasets that failed to load at startup (or whose
	// last install attempt failed), keyed by name — the skip-and-report
	// contract: a broken dataset is visible here, not fatal.
	LoadErrors map[string]string `json:"load_errors,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Requests: s.requests.Load(),
		Datasets: map[string]DatasetStats{},
	}
	s.mu.RLock()
	for name, d := range s.datasets {
		st := DatasetStats{Model: d.model, Tuples: d.eng.Ranker().Len(), Kind: d.kind, Generation: d.gen}
		if d.cached != nil {
			cs := d.cached.Stats()
			st.Cache = &cs
		}
		if d.bytes != nil {
			bs := d.bytes.stats()
			bs.Flights, bs.Shared = d.flight.Stats()
			st.ByteCache = &bs
		}
		resp.Datasets[name] = st
	}
	if len(s.loadErrors) > 0 {
		resp.LoadErrors = make(map[string]string, len(s.loadErrors))
		for name, msg := range s.loadErrors {
			resp.LoadErrors[name] = msg
		}
	}
	s.mu.RUnlock()
	writeJSON(w, resp)
}
