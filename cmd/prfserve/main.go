// Command prfserve serves probabilistic ranking queries over HTTP: the
// production front end of the unified Ranker engine. It loads one or more
// named datasets into prepared views at startup — paying each model's
// sort/triangulation cost exactly once — then answers declarative JSON
// queries with per-request deadlines and one answer cache per dataset (the
// encoded-response byte cache, or the engine-level result cache when the
// byte cache is disabled).
//
// Usage:
//
//	prfserve -data iip=ind:iip.csv -data sensors=xrel:sensors.csv -listen :8080
//	prfserve -demo                                # three synthetic datasets
//	prfserve -oneshot -data iip=ind:iip.csv -req query.json
//	prfserve -store ./segs -admin-token $TOK      # persistent, long-lived
//
// Dataset kinds: ind (CSV score,probability), xrel (CSV
// score,probability,group — rows sharing a group are mutually exclusive),
// tree (JSON and/xor spec), chain (JSON Markov-chain spec).
//
// Endpoints: POST /rank, POST /rankbatch, GET /datasets, GET /stats,
// GET /healthz. POST bodies must declare Content-Type: application/json.
// Example:
//
//	curl -s localhost:8080/rank -H 'Content-Type: application/json' \
//	  -d '{"dataset": "iip",
//	  "query": {"metric": "prfe", "alpha": 0.95, "output": "topk", "k": 10}}'
//
// Hot responses are answered from an encoded-byte cache (one Write, no
// re-encode; -byte-cache sizes it), identical concurrent cold queries
// collapse into one evaluation (-no-single-flight disables the latch for
// benchmarking), responses negotiate Accept-Encoding: gzip, and
// /rankbatch supports "stream": true (chunked per-grid-point emission)
// and "format": "columnar" (parallel arrays for large grids).
//
// -oneshot evaluates one request body against Engine.Rank in-process — no
// HTTP, no cache — and prints the byte-identical JSON the HTTP endpoint
// would return. The CI serve smoke test diffs the two paths against each
// other (scripts/serve_smoke.sh).
//
// With -store DIR the server is long-lived: -data files are imported into
// the store as binary segments (use cmd/prfstore for offline imports), every
// segment in the store is served, and -admin-token enables the dataset
// lifecycle endpoints (POST/DELETE /datasets/{name}, GET
// /datasets/{name}/info) for zero-downtime replacement. A segment that
// fails to open is skipped and reported under /stats load_errors instead of
// aborting startup; startup fails only when nothing loads at all.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/serve"
	"repro/internal/store"
)

// dataFlags collects repeatable -data name=kind:path specs.
type dataFlags []dataSpec

type dataSpec struct{ name, kind, path string }

func (f *dataFlags) String() string {
	parts := make([]string, len(*f))
	for i, d := range *f {
		parts[i] = fmt.Sprintf("%s=%s:%s", d.name, d.kind, d.path)
	}
	return strings.Join(parts, ",")
}

func (f *dataFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=kind:path, got %q", v)
	}
	kind, path, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("want name=kind:path, got %q", v)
	}
	if name == "" || path == "" {
		return fmt.Errorf("empty name or path in %q", v)
	}
	*f = append(*f, dataSpec{name: name, kind: kind, path: path})
	return nil
}

func main() {
	var (
		data       dataFlags
		listen     = flag.String("listen", "127.0.0.1:8080", "address to serve on")
		demo       = flag.Bool("demo", false, "load three synthetic demo datasets (demo-ind, demo-xrel, demo-chain)")
		demoN      = flag.Int("demo-n", 2000, "demo dataset size")
		cacheCap   = flag.Int("cache", engine.DefaultCacheCapacity, "result-cache entries per dataset; used only with -byte-cache -1 (negative disables)")
		byteCap    = flag.Int("byte-cache", serve.DefaultByteCacheCapacity, "response-byte-cache entries per dataset (negative disables)")
		noFlight   = flag.Bool("no-single-flight", false, "disable the per-key latch that collapses concurrent identical cold requests")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "upper bound on client-requested deadlines (0 = none)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		oneshot    = flag.Bool("oneshot", false, "evaluate -req against Engine.Rank in-process, print the response JSON, exit")
		reqPath    = flag.String("req", "-", "request JSON for -oneshot (\"-\" for stdin)")
		storeDir   = flag.String("store", "", "segment store directory: import -data files into it and serve every segment in it")
		adminToken = flag.String("admin-token", "", "Bearer token enabling the dataset admin endpoints (needs -store)")
	)
	flag.Var(&data, "data", "dataset to load, name=kind:path (kind: ind|xrel|tree|chain); repeatable")
	flag.Parse()

	if err := run(data, *listen, *demo, *demoN, *cacheCap, *byteCap, *noFlight, *timeout, *maxTimeout, *addrFile, *oneshot, *reqPath, *storeDir, *adminToken); err != nil {
		fmt.Fprintln(os.Stderr, "prfserve:", err)
		os.Exit(1)
	}
}

func run(data dataFlags, listen string, demo bool, demoN, cacheCap, byteCap int, noFlight bool,
	timeout, maxTimeout time.Duration, addrFile string, oneshot bool, reqPath, storeDir, adminToken string) error {
	if oneshot {
		// Oneshot stays the storeless in-process reference path: it parses
		// -data files directly so the smoke tests can diff store-served
		// responses against an independent load of the same sources.
		engines, _, err := loadEngines(data, demo, demoN)
		if err != nil {
			return err
		}
		if len(engines) == 0 {
			return errors.New("no datasets: pass -data name=kind:path (or -demo)")
		}
		return runOneshot(engines, reqPath)
	}
	if adminToken != "" && storeDir == "" {
		return errors.New("-admin-token needs -store (admin endpoints manage stored segments)")
	}

	var st *store.Store
	if storeDir != "" {
		var err error
		if st, err = store.Open(storeDir); err != nil {
			return err
		}
		// -data files become segments first; the serving views are then
		// opened from the store so startup and import share one code path.
		seen := map[string]bool{}
		for _, d := range data {
			if seen[d.name] {
				return fmt.Errorf("dataset %q given twice", d.name)
			}
			seen[d.name] = true
			if err := importFile(st, d); err != nil {
				return err
			}
		}
	}

	s := serve.New(serve.Options{
		DefaultTimeout:      timeout,
		MaxTimeout:          maxTimeout,
		CacheCapacity:       cacheCap,
		ByteCacheCapacity:   byteCap,
		DisableSingleFlight: noFlight,
		Store:               st,
		AdminToken:          adminToken,
	})

	loaded := []string{}
	if st != nil {
		names, err := st.Names()
		if err != nil {
			return err
		}
		for _, name := range names {
			// Skip-and-report: one unreadable segment must not take down
			// the healthy ones. The failure stays visible under /stats.
			if err := s.InstallFromStore(name); err != nil {
				s.RecordLoadError(name, err)
				fmt.Fprintf(os.Stderr, "prfserve: skipping dataset %q: %v\n", name, err)
				continue
			}
			loaded = append(loaded, name)
		}
	} else {
		engines, order, err := loadEngines(data, false, 0)
		if err != nil {
			return err
		}
		for _, name := range order {
			if err := s.AddDataset(name, engines[name]); err != nil {
				return err
			}
			loaded = append(loaded, name)
		}
	}
	if demo {
		for name, e := range demoEngines(demoN) {
			if err := s.AddDataset(name, e); err != nil {
				return err
			}
			loaded = append(loaded, name)
		}
	}
	if len(loaded) == 0 {
		if storeDir != "" {
			return errors.New("no datasets loaded: the store is empty or every segment failed to open")
		}
		return errors.New("no datasets: pass -data name=kind:path (or -demo)")
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	for _, name := range loaded {
		fmt.Printf("prfserve: dataset %q loaded\n", name)
	}
	fmt.Printf("prfserve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		fmt.Printf("prfserve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

// loadEngines parses -data files (and optionally the demo set) straight
// into prepared engines — the storeless path.
func loadEngines(data dataFlags, demo bool, demoN int) (map[string]*engine.Engine, []string, error) {
	engines := map[string]*engine.Engine{}
	order := []string{}
	add := func(name string, e *engine.Engine) error {
		if _, dup := engines[name]; dup {
			return fmt.Errorf("dataset %q given twice", name)
		}
		engines[name] = e
		order = append(order, name)
		return nil
	}
	for _, d := range data {
		e, err := serve.LoadFile(d.kind, d.path)
		if err != nil {
			return nil, nil, err
		}
		if err := add(d.name, e); err != nil {
			return nil, nil, err
		}
	}
	if demo {
		for name, e := range demoEngines(demoN) {
			if err := add(name, e); err != nil {
				return nil, nil, err
			}
		}
	}
	return engines, order, nil
}

// importFile parses one -data file and persists it as the next generation
// of the named segment.
func importFile(st *store.Store, d dataSpec) error {
	f, err := os.Open(d.path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := store.Parse(d.kind, f)
	if err != nil {
		return fmt.Errorf("%s: %w", d.path, err)
	}
	if _, err := st.Import(d.name, ds); err != nil {
		return err
	}
	return nil
}

// runOneshot answers one RankRequest via Engine.Rank/RankBatch directly —
// the in-process reference the HTTP path is certified against. Batch is
// selected by the presence of an α grid, mirroring the two endpoints.
func runOneshot(engines map[string]*engine.Engine, reqPath string) error {
	var r io.Reader = os.Stdin
	if reqPath != "-" {
		f, err := os.Open(reqPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req serve.RankRequest
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("malformed request JSON: %w", err)
	}
	e, ok := engines[req.Dataset]
	if !ok {
		return fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	enc := json.NewEncoder(os.Stdout)
	if len(q.Alphas) > 0 {
		res, err := e.RankBatch(ctx, q)
		if err != nil {
			return err
		}
		return enc.Encode(serve.BatchResponse{Dataset: req.Dataset, Results: serve.FromResults(res)})
	}
	res, err := e.Rank(ctx, q)
	if err != nil {
		return err
	}
	return enc.Encode(serve.RankResponse{Dataset: req.Dataset, WireResult: serve.FromResult(res)})
}

// demoEngines builds the synthetic demo datasets: one per loadable model
// family (independent, x-relation-like tree, Markov chain).
func demoEngines(n int) map[string]*engine.Engine {
	tree, err := datagen.SynXOR(n, 42)
	if err != nil {
		panic(err) // generator invariant: SynXOR specs are always valid
	}
	chainN := n / 10
	if chainN < 2 {
		chainN = 2
	}
	return map[string]*engine.Engine{
		"demo-ind":   engine.New(core.Prepare(datagen.IIPLike(n, 42))),
		"demo-xrel":  engine.New(andxor.PrepareTree(tree)),
		"demo-chain": engine.New(junction.PrepareChain(datagen.MarkovChainLike(chainN, 42))),
	}
}
