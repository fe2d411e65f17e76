package script

import (
	"hash/maphash"
	"sync"
)

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
	seed    maphash.Seed
	max     int
	entries map[uint64]*cacheEntry
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

type cacheEntry struct {
	key        uint64
	mode       byte
	chunk, src string
	proto      *funcProto
	prev, next *cacheEntry
}

// NewChunkCache returns a cache bounded to size entries (minimum 1).
func NewChunkCache(size int) *ChunkCache {
	if size < 1 {
		size = 1
	}
	c := &ChunkCache{
		seed:    maphash.MakeSeed(),
		max:     size,
		entries: make(map[uint64]*cacheEntry, size),
	}
	c.lru.next = &c.lru
	c.lru.prev = &c.lru
	return c
}

// hashKey hashes (mode, chunk, src) without materialising any composite
// string, so a cache hit allocates nothing.
func (c *ChunkCache) hashKey(mode byte, chunk, src string) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteByte(mode)
	h.WriteString(chunk)
	h.WriteByte(0)
	h.WriteString(src)
	return h.Sum64()
}

// lookup returns the cached proto for (mode, chunk, src), bumping it to
// most-recently-used. A 64-bit hash can collide, so the stored identity is
// compared in full before trusting the entry.
func (c *ChunkCache) lookup(mode byte, chunk, src string) (*funcProto, bool) {
	key := c.hashKey(mode, chunk, src)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.mode != mode || e.chunk != chunk || e.src != src {
		c.misses++
		return nil, false
	}
	c.hits++
	e.unlink()
	e.linkAfter(&c.lru)
	return e.proto, true
}

// store inserts a freshly compiled proto, evicting the least-recently-used
// entry when full. A hash collision overwrites the older entry — correctness
// is preserved because lookup verifies the full identity.
func (c *ChunkCache) store(mode byte, chunk, src string, proto *funcProto) {
	key := c.hashKey(mode, chunk, src)
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
	e := &cacheEntry{key: key, mode: mode, chunk: chunk, src: src, proto: proto}
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
