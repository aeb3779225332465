package main

// Tracing from outside the program. The traced run wraps two public
// boundaries and nothing else:
//
//   - the server's http.Handler, so each request's handler time is known
//     (client wall time minus handler time is the transport share);
//   - every dataset's engine.Ranker, with a decorator that forwards each
//     method and its ctx unchanged and adds the call's duration to the
//     current request's busy time for that backend.
//
// The client sends one request at a time over one connection, so "the
// current request" is well defined: the handler wrapper opens a record,
// ranker calls add to it, and the wrapper hands the closed record to the
// client once ServeHTTP returns.

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/andxor"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
	"repro/internal/store"
)

// Backend labels for per-layer busy time, in report order.
var backends = []string{"lazy", "andxor", "junction"}

// spanRecord is one request's handler time and ranker busy time.
type spanRecord struct {
	handler time.Duration
	busy    map[string]time.Duration
	calls   int
}

// tracer collects spans for the traced run.
type tracer struct {
	mu      sync.Mutex
	cur     spanRecord
	methods map[string][]time.Duration // "backend.Method" → call durations
	done    chan spanRecord
}

func newTracer() *tracer {
	return &tracer{methods: map[string][]time.Duration{}, done: make(chan spanRecord, 1)}
}

// handler wraps next so each request's span reaches the client.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		t.cur = spanRecord{busy: map[string]time.Duration{}}
		t.mu.Unlock()
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		t.mu.Lock()
		rec := t.cur
		t.mu.Unlock()
		rec.handler = d
		t.done <- rec
	})
}

// resetMethods drops the call durations recorded so far, so the method
// medians cover the timed phase only.
func (t *tracer) resetMethods() {
	t.mu.Lock()
	t.methods = map[string][]time.Duration{}
	t.mu.Unlock()
}

// span waits for the record of the request the client just completed.
func (t *tracer) span() spanRecord { return <-t.done }

func (t *tracer) add(backend, method string, d time.Duration) {
	t.mu.Lock()
	if t.cur.busy != nil {
		t.cur.busy[backend] += d
		t.cur.calls++
	}
	key := backend + "." + method
	t.methods[key] = append(t.methods[key], d)
	t.mu.Unlock()
}

// methodP50 reports the median call duration of every traced method.
func (t *tracer) methodP50() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, ds := range t.methods {
		ms := make([]float64, len(ds))
		for i, d := range ds {
			ms[i] = msOf(d)
		}
		sort.Float64s(ms)
		out[k] = quantile(ms, 0.5)
	}
	return out
}

// backendOf labels a ranker for the busy-time breakdown. Independent
// datasets served from the store are lazy views; their core kernels run
// inside the lazy view's methods and count as lazy busy time.
func backendOf(r engine.Ranker) string {
	switch r.(type) {
	case *store.LazyPrepared:
		return "lazy"
	case *andxor.PreparedTree:
		return "andxor"
	case *junction.PreparedChain:
		return "junction"
	}
	return "other"
}

// tracedRanker forwards every engine.Ranker method to r unchanged and
// times it.
type tracedRanker struct {
	r       engine.Ranker
	backend string
	t       *tracer
}

func (x *tracedRanker) time(method string, start time.Time) {
	x.t.add(x.backend, method, time.Since(start))
}

func (x *tracedRanker) Len() int { return x.r.Len() }

func (x *tracedRanker) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	defer x.time("QueryPRFe", time.Now())
	return x.r.QueryPRFe(ctx, alpha)
}

func (x *tracedRanker) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	defer x.time("QueryPRFeBatch", time.Now())
	return x.r.QueryPRFeBatch(ctx, alphas)
}

func (x *tracedRanker) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	defer x.time("QueryRankPRFe", time.Now())
	return x.r.QueryRankPRFe(ctx, alpha)
}

func (x *tracedRanker) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	defer x.time("QueryRankPRFeBatch", time.Now())
	return x.r.QueryRankPRFeBatch(ctx, alphas)
}

func (x *tracedRanker) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	defer x.time("QueryTopKPRFeBatch", time.Now())
	return x.r.QueryTopKPRFeBatch(ctx, alphas, k)
}

func (x *tracedRanker) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	defer x.time("QueryPRFeCombo", time.Now())
	return x.r.QueryPRFeCombo(ctx, us, alphas)
}

func (x *tracedRanker) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	defer x.time("QueryPRF", time.Now())
	return x.r.QueryPRF(ctx, omega)
}

func (x *tracedRanker) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	defer x.time("QueryPRFOmega", time.Now())
	return x.r.QueryPRFOmega(ctx, w)
}

func (x *tracedRanker) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	defer x.time("QueryPTh", time.Now())
	return x.r.QueryPTh(ctx, h)
}

func (x *tracedRanker) QueryERank(ctx context.Context) ([]float64, error) {
	defer x.time("QueryERank", time.Now())
	return x.r.QueryERank(ctx)
}

func (x *tracedRanker) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	defer x.time("QueryExpectedRank", time.Now())
	return x.r.QueryExpectedRank(ctx)
}

func (x *tracedRanker) QueryMedianRank(ctx context.Context) ([]float64, error) {
	defer x.time("QueryMedianRank", time.Now())
	return x.r.QueryMedianRank(ctx)
}
