package script

import "sync"

// ChunkCache is a content-addressed cache of compiled (parsed + resolved)
// chunks. The adaptation protocol ships the SAME source strings over and
// over — a strategy installed on many proxies, a predicate re-evaluated per
// sample, a trader dynamic-property script per offer — so compiling once per
// unique source removes the lexer/parser from every hot path.
//
// A ChunkCache is safe for concurrent use and may be shared between many
// Interp values (resolution is interpreter-independent: protos bind globals
// by name at run time). Entries are evicted least-recently-used once the
// cache exceeds its bound.
type ChunkCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*cacheEntry
	// Intrusive LRU list with a sentinel: lru.next is most recent.
	lru    cacheEntry
	hits   uint64
	misses uint64
}

// Compile modes: an expression source "x > 1" and a chunk source "x > 1"
// are different programs (the former is wrapped in "return (...)"), so the
// mode participates in the cache key.
const (
	cacheModeChunk byte = iota
	cacheModeExpr
)

// DefaultCacheSize bounds a private per-Interp cache when Options.CacheSize
// is zero. Real deployments hold a handful of strategies and predicates;
// 256 distinct sources is far past any workload in this repository.
const DefaultCacheSize = 256

// cacheKey is a compiled chunk's identity. Looking it up builds no
// composite string, so a cache hit allocates nothing.
type cacheKey struct {
	mode       byte
	chunk, src string
}

type cacheEntry struct {
	key        cacheKey
	proto      *funcProto
	prev, next *cacheEntry
}

// NewChunkCache returns a cache bounded to size entries (minimum 1).
func NewChunkCache(size int) *ChunkCache {
	if size < 1 {
		size = 1
	}
	// Not sized to max: every Interp has a private cache holding a few
	// sources, and 256 empty slots of 40-byte keys cost each one 26 KiB.
	c := &ChunkCache{
		max:     size,
		entries: make(map[cacheKey]*cacheEntry),
	}
	c.lru.next = &c.lru
	c.lru.prev = &c.lru
	return c
}

// lookup returns the cached proto for (mode, chunk, src), bumping it to
// most-recently-used.
func (c *ChunkCache) lookup(mode byte, chunk, src string) (*funcProto, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{mode, chunk, src}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e.unlink()
	e.linkAfter(&c.lru)
	return e.proto, true
}

// store inserts a freshly compiled proto, evicting the least-recently-used
// entry when full.
func (c *ChunkCache) store(mode byte, chunk, src string, proto *funcProto) {
	key := cacheKey{mode, chunk, src}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		old.unlink()
		delete(c.entries, key)
	}
	for len(c.entries) >= c.max {
		oldest := c.lru.prev
		if oldest == &c.lru {
			break
		}
		oldest.unlink()
		delete(c.entries, oldest.key)
	}
	e := &cacheEntry{key: key, proto: proto}
	c.entries[key] = e
	e.linkAfter(&c.lru)
}

func (e *cacheEntry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (e *cacheEntry) linkAfter(at *cacheEntry) {
	e.prev = at
	e.next = at.next
	at.next.prev = e
	at.next = e
}
