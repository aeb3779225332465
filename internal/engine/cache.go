package engine

// This file is the engine-level result cache: a bounded, sharded LRU
// memoizing canonical Query → Result over one immutable backend, plus the
// per-key single-flight latch (FlightGroup) that collapses a thundering
// herd of identical cold queries into one evaluation. Prepared views never
// change after construction, so invalidation is creation-time only — build
// a new CachedEngine when you build a new view — and a cache hit is
// certified bit-for-bit identical to a fresh evaluation (hits return deep
// copies of the stored result, so callers may mutate their answer without
// corrupting later hits; see cache_test.go).
//
// The serving layer (internal/serve) keeps one CachedEngine per loaded
// dataset, which realizes the ROADMAP's "(dataset, canonical Query) →
// Result" map structurally: the dataset axis is the engine instance, the
// query axis is Query.CacheKey. It layers its own encoded-byte cache and
// byte-level FlightGroup on top (internal/serve/bytecache.go).

import (
	"context"
	"errors"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// CacheKey returns a canonical, collision-free string encoding of the query
// parameters that determine its Result, and reports whether the query is
// cacheable at all. Two queries share a key if and only if Rank (or
// RankBatch) is guaranteed to return bit-for-bit identical answers for
// them. Floats are encoded by their IEEE-754 bit patterns, so keys are
// exact: no two distinct α values ever alias.
//
// MetricPRF queries are not cacheable — their Omega field is an arbitrary
// Go function whose behavior has no canonical encoding — and neither is a
// query with no Metric. Everything else is.
func (q Query) CacheKey() (string, bool) {
	if q.Metric == 0 || q.Metric == MetricPRF || q.Omega != nil {
		return "", false
	}
	// Worst case: metric+output+alpha plus 17 bytes per grid/weight/term
	// float. One allocation for typical queries.
	buf := make([]byte, 0, 64+17*(len(q.Alphas)+len(q.Weights)+4*len(q.Terms)))
	buf = append(buf, 'm', byte('0'+q.Metric), 'o', byte('0'+q.Output))
	buf = appendF64(buf, 'a', q.Alpha)
	if q.Output == OutputTopK || q.Metric == MetricGlobalTopk {
		// K only affects top-k answers — except under Global-Topk, where K
		// is also the world top-k depth and shapes every output form.
		buf = append(buf, 'k')
		buf = strconv.AppendInt(buf, int64(q.K), 16)
	}
	switch q.Metric {
	case MetricPRFe:
		for _, a := range q.Alphas {
			buf = appendF64(buf, 'g', a)
		}
	case MetricPRFOmega:
		for _, w := range q.Weights {
			buf = appendF64(buf, 'w', w)
		}
	case MetricPTh:
		buf = append(buf, 'h')
		buf = strconv.AppendInt(buf, int64(q.H), 16)
	case MetricPRFeCombo:
		for _, t := range q.Terms {
			buf = appendF64(buf, 'u', real(t.U))
			buf = appendF64(buf, 'v', imag(t.U))
			buf = appendF64(buf, 'x', real(t.Alpha))
			buf = appendF64(buf, 'y', imag(t.Alpha))
		}
	}
	return string(buf), true
}

// appendF64 appends a tagged, bit-exact encoding of f.
func appendF64(buf []byte, tag byte, f float64) []byte {
	buf = append(buf, tag)
	return strconv.AppendUint(buf, math.Float64bits(f), 16)
}

// CacheStats is a point-in-time snapshot of a cache's counters. The JSON
// form is what the serving layer's /stats endpoint reports per dataset.
type CacheStats struct {
	// Hits and Misses count lookups; Hits/(Hits+Misses) is the hit rate.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached results; Capacity its bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// cacheShard is one lock domain of the cache: an intrusive-list LRU.
type cacheShard struct {
	mu  sync.Mutex
	m   map[string]*cacheEntry
	cap int
	// Doubly linked LRU ring anchored at root (root.next = most recent).
	root cacheEntry
}

type cacheEntry struct {
	key        string
	val        any
	prev, next *cacheEntry
}

// Cache is a bounded, sharded LRU from canonical keys to immutable values.
// It is safe for concurrent use; lookups on distinct shards never contend.
// Values are shared between the cache and every reader — they must never be
// mutated.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// cacheShardCount is the fixed shard fan-out; a power of two so the hash
// maps onto shards without division.
const cacheShardCount = 16

// DefaultCacheCapacity is the entry bound NewCache applies when asked for a
// non-positive capacity.
const DefaultCacheCapacity = 1024

// NewCache builds a cache bounded to at least capacity entries (rounded up
// to a multiple of the shard count; non-positive capacities take
// DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	perShard := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &Cache{shards: make([]cacheShard, cacheShardCount), seed: maphash.MakeSeed()}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[string]*cacheEntry)
		s.cap = perShard
		s.root.prev = &s.root
		s.root.next = &s.root
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShardCount-1)]
}

// peek returns the cached value for key without counting the lookup or
// refreshing its recency — the double-check a single-flight leader runs
// after winning the latch (the caller's Get already counted the lookup).
func (c *Cache) peek(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	var val any
	if ok {
		val = e.val
	}
	s.mu.Unlock()
	return val, ok
}

// Get returns the cached value for key, if present, and counts the lookup.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	var val any
	if ok {
		e.unlink()
		e.linkFront(&s.root)
		// Copy under the lock: Put's refresh path writes e.val, so reading
		// it after unlocking would race.
		val = e.val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, evicting the least-recently-used entry of the
// key's shard when the shard is full. Storing an existing key refreshes its
// value and recency.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		e.unlink()
		e.linkFront(&s.root)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		lru := s.root.prev
		lru.unlink()
		delete(s.m, lru.key)
		c.evicts.Add(1)
	}
	e := &cacheEntry{key: key, val: val}
	s.m[key] = e
	e.linkFront(&s.root)
	s.mu.Unlock()
}

func (e *cacheEntry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (e *cacheEntry) linkFront(root *cacheEntry) {
	e.prev = root
	e.next = root.next
	root.next.prev = e
	root.next = e
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	cap := 0
	for i := range c.shards {
		cap += c.shards[i].cap
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
		Entries:   c.Len(),
		Capacity:  cap,
	}
}

// FlightGroup is a per-key single-flight latch: the first caller for a key
// becomes the leader and runs fn; callers that arrive while that flight is
// in progress wait and share the leader's result instead of re-running fn.
// The thundering-dashboard regime — N identical cold queries landing at
// once — thus pays one evaluation instead of N.
//
// Error semantics: a leader's deterministic error (validation) is shared
// with every waiter, but a leader's context error (cancellation, deadline)
// is the leader's own story — waiters whose contexts are still live retry
// the flight (becoming the next leader) rather than inheriting it. A waiter
// whose own context expires gives up with its own ctx.Err() immediately.
// The zero FlightGroup is ready to use.
type FlightGroup struct {
	mu sync.Mutex
	m  map[string]*flight

	flights atomic.Int64 // leader executions of fn
	shared  atomic.Int64 // calls answered by waiting on another's flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Do returns the result of running fn under the key's latch, deduplicating
// concurrent callers. fn runs exactly once per flight, under the leader's
// context (fn should close over it).
func (g *FlightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flight)
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					g.shared.Add(1)
					return f.val, nil
				}
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // the leader was cut off, not the work itself
				}
				g.shared.Add(1)
				return nil, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		g.flights.Add(1)
		f.val, f.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// Stats reports leader executions and deduplicated (shared) calls.
func (g *FlightGroup) Stats() (flights, shared int64) {
	return g.flights.Load(), g.shared.Load()
}

// cloneResult deep-copies a Result so cache hits never alias the stored
// slices: a caller mutating its answer must not corrupt later hits.
func cloneResult(r *Result) *Result {
	out := *r
	out.Values = slices.Clone(r.Values)
	out.Complex = slices.Clone(r.Complex)
	out.Ranking = slices.Clone(r.Ranking)
	return &out
}

func cloneResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i := range rs {
		out[i] = *cloneResult(&rs[i])
	}
	return out
}

// CachedEngine memoizes an Engine behind the canonical-query cache: the
// repeated-dashboard fast path. A hit returns a deep copy of the stored
// result — bit-for-bit identical to the uncached engine's answer, and safe
// to mutate (the copy isolates the cache from its callers; cache_test.go
// certifies both properties).
//
// Concurrent identical misses are collapsed by a per-key FlightGroup: one
// caller evaluates, everyone else waits and shares the stored result, so a
// cold storm of N equal queries costs one evaluation.
//
// Because prepared views are immutable, a CachedEngine never invalidates:
// its lifetime is the backing view's lifetime. It is safe for concurrent
// use.
type CachedEngine struct {
	e      *Engine
	cache  *Cache
	flight FlightGroup
}

// NewCached wraps an engine with a result cache bounded to capacity
// entries. Zero takes DefaultCacheCapacity; a negative capacity disables
// caching entirely (every call passes through) — the same sentinel meaning
// the serving layer's CacheCapacity option uses.
func NewCached(e *Engine, capacity int) *CachedEngine {
	if capacity < 0 {
		return &CachedEngine{e: e}
	}
	return &CachedEngine{e: e, cache: NewCache(capacity)}
}

// Engine returns the wrapped uncached engine.
func (ce *CachedEngine) Engine() *Engine { return ce.e }

// Stats snapshots the cache counters (all zero when caching is disabled).
func (ce *CachedEngine) Stats() CacheStats {
	if ce.cache == nil {
		return CacheStats{}
	}
	return ce.cache.Stats()
}

// Rank and RankBatch answers live in one keyspace; a one-byte prefix keeps
// them from colliding (a single-point Rank and a one-point batch of the
// same α have equal CacheKeys but different result shapes).
const (
	rankPrefix  = "R"
	batchPrefix = "B"
)

// Rank is Engine.Rank memoized. Errors (including context cancellation) are
// never cached; only successful results enter the cache. Identical
// concurrent misses evaluate once (single-flight).
func (ce *CachedEngine) Rank(ctx context.Context, q Query) (*Result, error) {
	if ce.cache == nil {
		return ce.e.Rank(ctx, q)
	}
	key, ok := q.CacheKey()
	if !ok {
		return ce.e.Rank(ctx, q)
	}
	key = rankPrefix + key
	if v, hit := ce.cache.Get(key); hit {
		return cloneResult(v.(*Result)), nil
	}
	v, err := ce.flight.Do(ctx, key, func() (any, error) {
		if v, ok := ce.cache.peek(key); ok {
			return v, nil // filled between our miss and winning the latch
		}
		res, err := ce.e.Rank(ctx, q)
		if err != nil {
			return nil, err
		}
		ce.cache.Put(key, res)
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return cloneResult(v.(*Result)), nil
}

// RankBatch is Engine.RankBatch memoized under the same rules as Rank.
func (ce *CachedEngine) RankBatch(ctx context.Context, q Query) ([]Result, error) {
	if ce.cache == nil {
		return ce.e.RankBatch(ctx, q)
	}
	key, ok := q.CacheKey()
	if !ok {
		return ce.e.RankBatch(ctx, q)
	}
	key = batchPrefix + key
	if v, hit := ce.cache.Get(key); hit {
		return cloneResults(v.([]Result)), nil
	}
	v, err := ce.flight.Do(ctx, key, func() (any, error) {
		if v, ok := ce.cache.peek(key); ok {
			return v, nil
		}
		res, err := ce.e.RankBatch(ctx, q)
		if err != nil {
			return nil, err
		}
		ce.cache.Put(key, res)
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return cloneResults(v.([]Result)), nil
}

// FlightStats reports the single-flight counters: leader evaluations and
// calls that were answered by waiting on another caller's flight.
func (ce *CachedEngine) FlightStats() (flights, shared int64) {
	return ce.flight.Stats()
}
