package trading

import (
	"sync"

	"autoadapt/internal/wire"
)

// Compile-once caches for constraint and preference sources. Auto-adaptive
// applications issue the same handful of query strings over and over (the
// paper's agents re-run their configuration-script queries on every
// adaptation cycle), so parsing per call is pure overhead. Compiled
// expressions are immutable after parse, which makes sharing them across
// queries and goroutines safe.
//
// Only successful parses are cached: a malformed source re-reports its
// error each time without occupying a slot, so a client spraying garbage
// cannot evict the working set.

// maxCachedSources bounds each cache. On overflow the cache is reset
// wholesale — crude, but queries in steady state use a tiny set of
// sources, so the reset is rare and the next few calls simply re-parse.
const maxCachedSources = 512

type parseCache[T any] struct {
	mu sync.Mutex
	m  map[string]T
}

func (c *parseCache[T]) get(src string, parse func(string) (T, error)) (T, error) {
	c.mu.Lock()
	if v, ok := c.m[src]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	src = wire.Keep(src) // the cache keeps it, and what parses from it
	v, err := parse(src)
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= maxCachedSources {
		c.m = make(map[string]T, 64)
	}
	c.m[src] = v
	c.mu.Unlock()
	return v, nil
}

var (
	constraintCache parseCache[*Constraint]
	preferenceCache parseCache[*Preference]
)

// cachedConstraint is ParseConstraint behind the compile-once cache.
func cachedConstraint(src string) (*Constraint, error) {
	return constraintCache.get(src, ParseConstraint)
}

// cachedPreference is ParsePreference behind the compile-once cache.
func cachedPreference(src string) (*Preference, error) {
	return preferenceCache.get(src, ParsePreference)
}
