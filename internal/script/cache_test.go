package script

import (
	"fmt"
	"sync"
	"testing"
)

func TestChunkCacheHitMissCounters(t *testing.T) {
	in := New(Options{})
	if _, err := in.Eval("c", "return 1"); err != nil {
		t.Fatal(err)
	}
	s := countsOf(in.cache)
	if s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after first Eval: %+v", s)
	}
	for i := 0; i < 5; i++ {
		if _, err := in.Eval("c", "return 1"); err != nil {
			t.Fatal(err)
		}
	}
	s = countsOf(in.cache)
	if s.Hits != 5 || s.Misses != 1 {
		t.Fatalf("after repeats: %+v", s)
	}
	// Same source under a different chunk name is a different program (the
	// name is baked into error positions) — must miss.
	if _, err := in.Eval("other", "return 1"); err != nil {
		t.Fatal(err)
	}
	if s = countsOf(in.cache); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after chunk-name change: %+v", s)
	}
	// Expression and chunk modes are distinct keys even for identical text.
	if _, err := in.EvalExpr("c", "1"); err != nil {
		t.Fatal(err)
	}
	if s = countsOf(in.cache); s.Misses != 3 {
		t.Fatalf("after mode change: %+v", s)
	}
}

// TestChunkCacheCachesProtosNotResults guards against the classic mistake
// of caching evaluation results: cached chunks must re-run against current
// interpreter state.
func TestChunkCacheCachesProtosNotResults(t *testing.T) {
	in := New(Options{})
	for want := 1; want <= 5; want++ {
		vs, err := in.Eval("acc", "g = (g or 0) + 1 return g")
		if err != nil {
			t.Fatal(err)
		}
		if got := vs[0].Num(); got != float64(want) {
			t.Fatalf("run %d: got %v", want, got)
		}
	}
	if s := countsOf(in.cache); s.Hits != 4 {
		t.Fatalf("expected 4 hits, got %+v", s)
	}
}

func TestChunkCacheLRUEviction(t *testing.T) {
	cache := NewChunkCache(2)
	in := New(Options{Cache: cache})
	eval := func(src string) {
		t.Helper()
		if _, err := in.Eval("lru", src); err != nil {
			t.Fatal(err)
		}
	}
	eval("return 1") // A
	eval("return 2") // B; cache = {B, A}
	eval("return 1") // hit A; cache = {A, B}
	eval("return 3") // C evicts B; cache = {C, A}
	base := countsOf(cache)
	if base.Entries != 2 {
		t.Fatalf("entries = %d, want 2", base.Entries)
	}
	eval("return 1") // A must have survived as recently used
	if s := countsOf(cache); s.Hits != base.Hits+1 {
		t.Fatalf("recently used entry was evicted: %+v vs %+v", s, base)
	}
	eval("return 2") // B was evicted → miss (and re-stored, evicting C)
	if s := countsOf(cache); s.Misses != base.Misses+1 {
		t.Fatalf("evicted entry did not miss: %+v vs %+v", s, base)
	}
}

// TestSharedCacheConcurrentCompile exercises the documented contract: one
// *ChunkCache shared by many Interp values across goroutines, each Interp
// staying single-goroutine. Run under -race (the CI test-race job does)
// this also proves compiled protos are safe to share: every goroutine
// executes closures resolved from the same cached ASTs concurrently.
func TestSharedCacheConcurrentCompile(t *testing.T) {
	cache := NewChunkCache(64)
	sources := make([]string, 8)
	for i := range sources {
		sources[i] = fmt.Sprintf(
			"local acc = 0 for i = 1, 10 do acc = acc + i * %d end return acc", i+1)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := New(Options{Cache: cache})
			for round := 0; round < 50; round++ {
				for i, src := range sources {
					vs, err := in.Eval("shared", src)
					if err != nil {
						errs <- err
						return
					}
					want := float64(55 * (i + 1))
					if len(vs) != 1 || vs[0].Num() != want {
						errs <- fmt.Errorf("source %d: got %v want %v", i, vs, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := countsOf(cache)
	if s.Misses > uint64(len(sources)) {
		// Benign compile races may duplicate a miss, but 8 goroutines × 50
		// rounds must be overwhelmingly hits.
		t.Logf("note: %d misses for %d sources (racing first compiles)", s.Misses, len(sources))
	}
	if s.Hits < 3000 {
		t.Fatalf("expected shared cache to serve most compiles: %+v", s)
	}
}

// cacheCounts is a snapshot of a chunk cache's counters.
type cacheCounts struct {
	Hits, Misses uint64
	Entries      int
}

// countsOf reads c's counters; a nil cache (caching disabled) reads zero.
func countsOf(c *ChunkCache) cacheCounts {
	if c == nil {
		return cacheCounts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounts{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}
