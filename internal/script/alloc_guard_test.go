package script

import (
	"testing"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// Allocation-regression guards for the interpreter hot paths, in the style
// of internal/wire and internal/orb. The resolver/pool overhaul took the
// tree walker's numeric-loop kernel from ~7000 allocs per run to one (the
// return-value slice) and Fib15 from ~20700 to ~3950; the bytecode VM —
// the only production executor, guarded under the plain names below — holds
// the loop at 1 alloc and takes Fib15 to ~4 (fixed-arg calls borrow the
// caller's register window instead of allocating). The explicit *TreeWalk
// variants keep the reference interpreter pinned at its own ceilings.
// Ceilings carry slack over the measured counts so toolchain noise does not
// flake them.

func TestAllocGuardNumericLoop(t *testing.T) {
	in := New(Options{})
	fn, err := in.Compile("loop", "local s = 0 for i = 1, 1000 do s = s + i end return s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call(fn, nil); err != nil {
		t.Fatal(err) // warm the frame/buffer pools
	}
	// Measured: 1 alloc (the return-value slice).
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := in.Call(fn, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("NumericLoop: %.1f allocs/op, want <= 4", allocs)
	}
}

func TestAllocGuardFib15(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	in := New(Options{})
	fn, err := in.Compile("fib",
		"local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(15)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call(fn, nil); err != nil {
		t.Fatal(err)
	}
	// Measured: ~4 allocs on the VM (one pooled frame grow + the return
	// slice; recursive script→script calls reuse register windows). The
	// tree walker needs ~3950 and the seed interpreter ~20700 — fail long
	// before either regression can sneak back into the VM.
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := in.Call(fn, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 64 {
		t.Fatalf("Fib15: %.1f allocs/op, want <= 64", allocs)
	}
}

func TestAllocGuardNumericLoopTreeWalk(t *testing.T) {
	in := newReference(Options{})
	fn, err := in.Compile("loop", "local s = 0 for i = 1, 1000 do s = s + i end return s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call(fn, nil); err != nil {
		t.Fatal(err)
	}
	// Measured: 1 alloc (the return-value slice), same as the VM.
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := in.Call(fn, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("NumericLoop (treewalk): %.1f allocs/op, want <= 4", allocs)
	}
}

func TestAllocGuardFib15TreeWalk(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	in := newReference(Options{})
	fn, err := in.Compile("fib",
		"local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(15)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call(fn, nil); err != nil {
		t.Fatal(err)
	}
	// Measured: ~3950 allocs (two per call across 1973 calls). The seed
	// interpreter needed ~20700; fail well before it drifts back.
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := in.Call(fn, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4500 {
		t.Fatalf("Fib15 (treewalk): %.1f allocs/op, want <= 4500", allocs)
	}
}

// TestAllocGuardCachedEval pins the chunk-cache fast path: re-Eval of
// identical source must not touch the lexer or parser. Parsing even the
// tiny source below costs dozens of allocations (tokens, AST nodes,
// resolver state), so the ceiling of 3 is only reachable on a cache hit.
func TestAllocGuardCachedEval(t *testing.T) {
	in := New(Options{})
	const src = "return 1 + 1"
	if _, err := in.Eval("guard", src); err != nil {
		t.Fatal(err)
	}
	before := countsOf(in.cache)
	// Measured: 2 allocs (the Closure wrapper and the return slice).
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.Eval("guard", src); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("cached re-Eval: %.1f allocs/op, want <= 3 (cache hit must skip parsing)", allocs)
	}
	after := countsOf(in.cache)
	if after.Hits <= before.Hits {
		t.Fatalf("expected cache hits to grow: before %+v after %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("re-Eval of identical source must not miss: before %+v after %+v", before, after)
	}
}

// TestCacheDisabledStillWorks covers the CacheSize<0 escape hatch used by
// the E12 "old world" benchmark: every Eval re-parses, and Stats stays
// zero.
func TestCacheDisabledStillWorks(t *testing.T) {
	in := New(Options{CacheSize: -1})
	for i := 0; i < 3; i++ {
		vs, err := in.Eval("nocache", "return 21 * 2")
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || vs[0].Num() != 42 {
			t.Fatalf("bad result %v", vs)
		}
	}
	if s := countsOf(in.cache); s != (cacheCounts{}) {
		t.Fatalf("disabled cache reported stats %+v", s)
	}
}

// A load sample crosses the script/wire boundary as a 3-number list on
// every monitor read. Conversion sizes its target table first, so FromWire
// costs the table and its array and ToWire one fused wire table. Measured:
// 2 and 1, pinned with no slack.
func TestAllocGuardFromWireList(t *testing.T) {
	w := wire.TableVal(wire.NewList(wire.Number(80), wire.Number(40), wire.Number(30)))
	if allocs := testing.AllocsPerRun(500, func() { _ = FromWire(w) }); allocs != 2 {
		t.Fatalf("FromWire of a 3-number list: %.1f allocs/op, want 2", allocs)
	}
}

func TestAllocGuardToWireList(t *testing.T) {
	s := FromWire(wire.TableVal(wire.NewList(wire.Number(80), wire.Number(40), wire.Number(30))))
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.ToWire(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("ToWire of a 3-number list: %.1f allocs/op, want 1", allocs)
	}
}
