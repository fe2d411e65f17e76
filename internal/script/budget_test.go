package script

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
)

// Sandbox budget semantics: wall-clock budgets are deterministic under the
// sim clock, cancellation lands at the next amortized check, and the memory
// account kills allocation bombs the step budget alone would let run for a
// long time (a table bomb "steps" slowly but allocates fast).
//
// Every test here runs against the VM and the reference interpreter: they
// execute different artifacts, so budget enforcement has to be proven on
// each independently — a missed opStep or uncharged allocation in the VM
// would pass silently if only the reference were exercised.

const infiniteLoopSrc = `local i = 0 while true do i = i + 1 end`

func TestWallBudgetSimClock(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(0, 0))
			in := eng.new(Options{Clock: sim, WallBudget: 50 * time.Millisecond, MaxSteps: -1})
			fn, err := in.Compile("spin", infiniteLoopSrc)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := in.Call(fn, nil)
				done <- err
			}()
			// The script only observes sim time: it spins (real CPU) until the sim
			// clock is advanced past its budget, then aborts at the next amortized
			// check. Advance repeatedly: a single Advance could land before CallCtx
			// stamps its deadline and be absorbed into it.
			timeout := time.After(10 * time.Second)
			for {
				select {
				case err := <-done:
					if !errors.Is(err, ErrWallBudget) {
						t.Fatalf("err = %v, want ErrWallBudget", err)
					}
					if !IsBudgetError(err) {
						t.Fatalf("IsBudgetError(%v) = false", err)
					}
					return
				case <-timeout:
					t.Fatal("script did not abort after the sim clock passed its wall budget")
				default:
					sim.Advance(time.Second)
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}

func TestWallBudgetFrozenClockNeverTrips(t *testing.T) {
	// Under a frozen sim clock even a 1ns wall budget must not fire: the
	// budget is checked against the injected clock, never the real one, so
	// sim-driven experiments stay deterministic regardless of host speed.
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(0, 0))
			in := eng.new(Options{Clock: sim, WallBudget: time.Nanosecond})
			vs, err := in.Eval("loop", `local s = 0 for i = 1, 100000 do s = s + i end return s`)
			if err != nil {
				t.Fatalf("frozen-clock run aborted: %v", err)
			}
			if n := vs[0].Num(); n != 5000050000 {
				t.Fatalf("sum = %v", n)
			}
		})
	}
}

func TestCallCtxCancel(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			in := eng.new(Options{MaxSteps: -1})
			fn, err := in.Compile("spin", infiniteLoopSrc)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			_, err = in.CallCtx(ctx, fn, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !IsBudgetError(err) {
				t.Fatalf("IsBudgetError(%v) = false", err)
			}
			// The interpreter must stay usable after an abort.
			if vs, err := in.Eval("after", "return 1 + 1"); err != nil || vs[0].Num() != 2 {
				t.Fatalf("post-abort eval = %v, %v", vs, err)
			}
		})
	}
}

func TestCallCtxDeadline(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			in := eng.new(Options{MaxSteps: -1})
			fn, err := in.Compile("spin", infiniteLoopSrc)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			_, err = in.CallCtx(ctx, fn, nil)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if !IsBudgetError(err) {
				t.Fatalf("IsBudgetError(%v) = false", err)
			}
		})
	}
}

func TestMemBudgetBombs(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"table-bomb", `local t = {} local i = 1 while true do t[i] = i i = i + 1 end`},
		{"concat-bomb", `local s = "x" while true do s = s .. s end`},
		{"rep-bomb", `return string.rep("a", 100000)`},
		{"format-bomb", `local s = "y" while true do s = string.format("%s%s", s, s) end`},
		{"insert-bomb", `local t = {} while true do table.insert(t, 1) end`},
	}
	for _, eng := range engines {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				in := eng.new(Options{MemBudget: 1 << 16, MaxSteps: -1})
				_, err := in.Eval(tc.name, tc.src)
				if !errors.Is(err, ErrMemBudget) {
					t.Fatalf("err = %v, want ErrMemBudget", err)
				}
				if !IsBudgetError(err) {
					t.Fatalf("IsBudgetError(%v) = false", err)
				}
			})
		}
	}
}

func TestMemBudgetAllowsModestWork(t *testing.T) {
	// The same budget that kills the bombs must not starve a realistic
	// strategy-sized workload.
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			in := eng.new(Options{MemBudget: 1 << 16})
			vs, err := in.Eval("modest", `
				local t = {}
				for i = 1, 50 do t[i] = "host-" .. i end
				return #t`)
			if err != nil {
				t.Fatalf("modest workload aborted: %v", err)
			}
			if n := vs[0].Num(); n != 50 {
				t.Fatalf("#t = %v", n)
			}
		})
	}
}

func TestDeepRecursionBounded(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			in := eng.new(Options{})
			_, err := in.Eval("deep", `local function f(n) return f(n + 1) end return f(0)`)
			if err == nil {
				t.Fatal("unbounded recursion did not error")
			}
		})
	}
}

// TestBudgetedInterpsSharedCacheRace exercises concurrently budgeted
// interpreters sharing one ChunkCache under -race: budgets are per-Interp
// state and must not introduce sharing through the cache. Workers alternate
// between the VM and the reference, so the cached proto is raced between
// tree-walk execution and the VM's lazy bytecode compile (funcProto.vm is an
// atomic pointer; concurrent first-call compiles must be safe and
// invisible).
func TestBudgetedInterpsSharedCacheRace(t *testing.T) {
	cache := NewChunkCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := engines[w%len(engines)].new(Options{
				Cache:      cache,
				WallBudget: time.Second,
				MemBudget:  1 << 20,
			})
			for i := 0; i < 50; i++ {
				vs, err := in.Eval("shared", `
					local s = 0
					for i = 1, 100 do s = s + i end
					return s`)
				if err != nil {
					t.Errorf("worker %d run %d: %v", w, i, err)
					return
				}
				if vs[0].Num() != 5050 {
					t.Errorf("worker %d run %d: sum = %v", w, i, vs[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAllocGuardNumericLoopBudgeted proves armed budgets are free on the
// hot path: the numeric-loop kernel keeps the same allocation ceiling as
// the unbudgeted guards in alloc_guard_test.go, on the VM and the reference.
func TestAllocGuardNumericLoopBudgeted(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			in := eng.new(Options{WallBudget: time.Minute, MemBudget: 1 << 30})
			fn, err := in.Compile("loop", "local s = 0 for i = 1, 1000 do s = s + i end return s")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Call(fn, nil); err != nil {
				t.Fatal(err) // warm the frame/buffer pools
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, err := in.Call(fn, nil); err != nil {
					t.Fatal(err)
				}
			}); allocs > 4 {
				t.Fatalf("budgeted NumericLoop (%s): %.1f allocs/op, want <= 4 (budgets must add 0)", eng.name, allocs)
			}
		})
	}
}
