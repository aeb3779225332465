package serve

// The response-byte cache: the serving layer's answer to BENCH_5, which
// showed that once the engine-level result cache is hot, nearly all of a
// cached HTTP request's cost is re-encoding the same ~1 MB JSON body. The
// byteCache stores the fully encoded (and, when negotiated, gzip-compressed)
// response bytes keyed on (endpoint, encoding, format, Query.CacheKey), so a
// hot hit is a single Write with no JSON encoder or compressor on the path.
//
// It is a plain mutex-guarded LRU — unlike the engine's sharded cache it
// holds megabyte-scale values, so the bound that matters is bytes, not
// entries, and the lock is held only for map/list surgery (never while
// encoding). Eviction runs from the LRU tail until both the entry bound and
// the byte bound hold.

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultByteCacheCapacity is the per-dataset entry bound applied when
// Options.ByteCacheCapacity is zero.
const DefaultByteCacheCapacity = 256

// defaultByteCacheBytes bounds the total encoded bytes a dataset's byte
// cache may retain: 256 sweep-sized bodies at ~1 MB each would otherwise
// dwarf the dataset itself.
const defaultByteCacheBytes = 64 << 20

// byteBody is one cached response body. gzipped marks whether the bytes are
// a gzip stream (and the response needs Content-Encoding: gzip); length is
// the Content-Length header value, formatted once when the body is made.
type byteBody struct {
	bytes   []byte
	gzipped bool
	length  []string
}

func newByteBody(b []byte, gzipped bool) byteBody {
	return byteBody{bytes: b, gzipped: gzipped, length: []string{strconv.Itoa(len(b))}}
}

// ByteCacheStats is the byte_cache block of GET /stats. Flights and Shared
// come from the per-dataset single-flight group: Flights counts evaluations
// led, Shared counts callers that piggybacked on another caller's flight.
type ByteCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Flights   int64 `json:"flights"`
	Shared    int64 `json:"shared"`
}

type byteEntry struct {
	key  string
	body byteBody
}

// byteCache is the bounded LRU of encoded bodies. Safe for concurrent use.
type byteCache struct {
	capEntries int
	capBytes   int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	m     map[string]*list.Element
	bytes int64

	hits, misses, evictions atomic.Int64
}

// newByteCache builds a cache bounded to capEntries (0 takes
// DefaultByteCacheCapacity) and defaultByteCacheBytes. A negative capacity
// disables byte caching entirely: the returned cache is nil, and all the
// nil-receiver methods below degrade to misses.
func newByteCache(capEntries int) *byteCache {
	if capEntries < 0 {
		return nil
	}
	if capEntries == 0 {
		capEntries = DefaultByteCacheCapacity
	}
	return &byteCache{
		capEntries: capEntries,
		capBytes:   defaultByteCacheBytes,
		ll:         list.New(),
		m:          make(map[string]*list.Element),
	}
}

// get looks up a body and counts the hit or miss.
func (c *byteCache) get(key string) (byteBody, bool) {
	if c == nil {
		return byteBody{}, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	var body byteBody
	if ok {
		c.ll.MoveToFront(el)
		body = el.Value.(*byteEntry).body
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return body, ok
}

// peek is get without the hit/miss accounting and without an LRU touch —
// the double-check inside a flight uses it so a leader that finds the body
// already filled does not inflate the counters with a second lookup.
func (c *byteCache) peek(key string) (byteBody, bool) {
	if c == nil {
		return byteBody{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		return el.Value.(*byteEntry).body, true
	}
	return byteBody{}, false
}

// put inserts (or replaces) a body and evicts from the LRU tail until both
// bounds hold again. Bodies larger than the byte bound are simply not
// retained — evicting the whole cache to fit one giant would be worse.
func (c *byteCache) put(key string, body byteBody) {
	if c == nil || int64(len(body.bytes)) > c.capBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*byteEntry)
		c.bytes += int64(len(body.bytes)) - int64(len(e.body.bytes))
		e.body = body
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&byteEntry{key: key, body: body})
		c.bytes += int64(len(body.bytes))
	}
	for c.ll.Len() > c.capEntries || c.bytes > c.capBytes {
		tail := c.ll.Back()
		e := tail.Value.(*byteEntry)
		c.ll.Remove(tail)
		delete(c.m, e.key)
		c.bytes -= int64(len(e.body.bytes))
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// stats snapshots the counters (Flights/Shared are filled by the caller
// from the dataset's flight group).
func (c *byteCache) stats() ByteCacheStats {
	if c == nil {
		return ByteCacheStats{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return ByteCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
