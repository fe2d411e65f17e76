package script

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// FuzzCompileResolve feeds arbitrary source through the whole compile
// pipeline (lex → parse → resolve → fold). Invalid programs must come back
// as *SyntaxError values, never as panics, and valid ones must also survive
// a bounded run — the resolver's slot/box/upvalue assignment is exactly the
// kind of index arithmetic that panics when it is wrong.
func FuzzCompileResolve(f *testing.F) {
	seeds := []string{
		"",
		"return 1 + 2 * 3",
		"local x = 1 return x",
		"local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(5)",
		"local t = {1, 2, x = 3} return t.x + #t",
		"for i = 1, 10 do end",
		"for k, v in pairs({a=1}) do return k, v end",
		"local fns = {} for i = 1, 3 do fns[i] = function() return i end end return fns[1]()",
		"local a, b = 1 return a, b",
		"return function(...) return ... end",
		"repeat local x = 1 until x", // until sees OUTER scope: x here is global nil... syntactically fine
		"local s = 'a' .. 1 .. [[multi\nline]]",
		"return ...",
		"local x = x return x",
		"function a.b.c() end",
		"local t = {} function t:m(v) self.v = v end t:m(1) return t.v",
		"while true do break end",
		"return -2^2, 2^3^2, -7%3, 1e3, 0x10, .5",
		"return not nil and 1 or 2",
		"local function o() local n = 0 return function() n = n + 1 return n end end return o()()",
		// malformed inputs
		"return",
		"local",
		"1 +",
		"function",
		"end",
		"local x = function( return",
		"... = 1",
		"return ]] [[",
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := New(Options{MaxSteps: 20_000, CacheSize: -1})
		fn, err := in.Compile("fuzz", src)
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz:") {
				t.Fatalf("compile error lost its chunk position: %v", err)
			}
			return
		}
		// Run the resolved program under a tight budget; runtime errors are
		// fine, panics are the bug.
		_, _ = in.Call(fn, []Value{Number(1), String("arg")})
	})
}

// fuzzPtr scrubs heap addresses (print(t) renders "table: 0xc000...")
// before outputs are compared: the VM and the reference necessarily build
// distinct table instances, so raw pointers always differ.
var fuzzPtr = regexp.MustCompile(`0x[0-9a-f]+`)

// fuzzRenderValue is an order-insensitive cousin of renderValue
// (differential_test.go): Pairs orders table- and function-keyed entries by
// pointer address, which is instance-specific, so pair strings are
// sorted per nesting level instead of trusting iteration order.
func fuzzRenderValue(v Value, depth int) string {
	t, ok := v.AsTable()
	if !ok {
		if v.Kind() == KindString {
			return fmt.Sprintf("%q", v.ToString())
		}
		return fuzzPtr.ReplaceAllString(v.ToString(), "0xPTR")
	}
	if depth > 4 {
		return "{...}"
	}
	var pairs []string
	t.Pairs(func(k, val Value) bool {
		pairs = append(pairs, fuzzRenderValue(k, depth+1)+"="+fuzzRenderValue(val, depth+1))
		return true
	})
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ", ") + "}"
}

func fuzzRenderResult(vs []Value, err error) string {
	if err != nil {
		return "error: " + fuzzPtr.ReplaceAllString(err.Error(), "0xPTR")
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fuzzRenderValue(v, 0)
	}
	return strings.Join(parts, " | ")
}

// FuzzVMDiff executes every fuzzed chunk on the bytecode VM and on the
// tree-walking reference and requires identical results, error strings, and
// print() output. This is the differential corpus's hostile sibling: the
// fixed corpus pins the cases we thought of, the fuzzer hunts for
// evaluation-order, budget-placement, or register-clobber divergences we did
// not. Budgets are armed so bombs terminate deterministically on both sides
// (budget error text is position-stamped and must also match). A chunk the
// VM rejects with ErrTooLarge is skipped: that limit is documented, and the
// reference has none.
func FuzzVMDiff(f *testing.F) {
	seeds := []string{
		"return 1 + 2 * 3",
		"local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(10)",
		"local t = {1, 2, x = 3} return t.x + #t",
		"local fns = {} for i = 1, 3 do fns[i] = function() return i end end return fns[1](), fns[3]()",
		"for k, v in pairs({a=1, b=2}) do end return 1",
		"local a, b = 1 return a, b",
		"local f = function(...) return ... end return f(1, nil, 3)",
		"local s = 'a' .. 1 .. [[multi\nline]] return s",
		"return ...",
		"local t = {} function t:m(v) self.v = v end t:m(1) return t.v",
		"while true do break end return 'out'",
		"return -2^2, 2^3^2, -7%3",
		"return not nil and 1 or 2",
		"local function o() local n = 0 return function() n = n + 1 return n end end local c = o() c() return c()",
		"local ok, e = pcall(function() error('boom') end) return ok, e",
		"local ok, e = pcall(function() local x = nil return x.y end) return ok, e",
		"local s = 0 for i = 10, 1, -2 do s = s + i end return s",
		"repeat local x = 1 until true return 2",
		"local t = {} for i = 1, 5 do t[#t + 1] = i * i end return t[5]",
		"print('hi', {1, 2}, nil) return 0",
		"local x = 1 x = x + 1 return x, select('#', 1, 2, 3)",
		"local s = '' while true do s = s .. 'xx' end",
		"local t = {} local i = 1 while true do t[i] = i i = i + 1 end",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		run := func(newInterp func(Options) *Interp) (string, string, error) {
			var buf bytes.Buffer
			in := newInterp(Options{
				MaxSteps:  20_000,
				MemBudget: 1 << 20,
				CacheSize: -1,
				Stdout:    &buf,
			})
			fn, err := in.Compile("fuzz", src)
			if err != nil {
				return "", "", err
			}
			vs, callErr := in.Call(fn, []Value{Number(1), String("arg")})
			return fuzzRenderResult(vs, callErr), fuzzPtr.ReplaceAllString(buf.String(), "0xPTR"), nil
		}
		vmRes, vmOut, vmCompileErr := run(New)
		twRes, twOut, twCompileErr := run(newReference)
		// Compilation is shared (lex/parse/resolve), so a compile error on
		// one side must appear on the other verbatim.
		if (vmCompileErr == nil) != (twCompileErr == nil) {
			t.Fatalf("compile divergence: vm=%v treewalk=%v", vmCompileErr, twCompileErr)
		}
		if vmCompileErr != nil {
			if vmCompileErr.Error() != twCompileErr.Error() {
				t.Fatalf("compile error text divergence:\n  vm       %v\n  treewalk %v", vmCompileErr, twCompileErr)
			}
			return
		}
		tooLarge := ErrTooLarge.Error()
		if strings.Contains(vmRes+vmOut, tooLarge) && !strings.Contains(twRes+twOut, tooLarge) {
			return
		}
		if vmRes != twRes {
			t.Fatalf("result divergence on %q:\n  vm       %s\n  treewalk %s", src, vmRes, twRes)
		}
		if vmOut != twOut {
			t.Fatalf("print output divergence on %q:\n  vm       %q\n  treewalk %q", src, vmOut, twOut)
		}
	})
}
