package script

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The differential corpus pins the observable semantics of the interpreter
// across executor rewrites. The golden file was generated by the
// pre-resolver tree walker (environment chains, string-keyed lookups); the
// VM and the reference interpreter must both reproduce every result byte for
// byte. Regenerate only when the *language* deliberately changes: go test
// ./internal/script -run TestDifferentialCorpus -update-golden.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/differential.golden from the reference interpreter")

type diffCase struct {
	name  string
	src   string
	setup func(in *Interp) // optional host-primitive injection
	opts  Options          // zero value = New(Options{}) as before
}

// diffCorpus collects every deterministic script exercised by interp_test.go
// and stdlib_test.go, plus the paper listings used in EXPERIMENTS.md (Fig. 3
// update and aspect, Fig. 4 predicate, Fig. 7 strategy) with their host
// objects rebuilt as plain script tables so the corpus needs no network.
var diffCorpus = []diffCase{
	// ---- arithmetic and operators (interp_test.go TestArithmetic &c.) ----
	{name: "arith-precedence", src: "return 1+2*3"},
	{name: "arith-parens", src: "return (1+2)*3"},
	{name: "arith-div", src: "return 10/4"},
	{name: "arith-mod", src: "return 7%3"},
	{name: "arith-mod-neg", src: "return -7%3"},
	{name: "arith-pow", src: "return 2^10"},
	{name: "arith-unary-pow", src: "return -2^2"},
	{name: "arith-pow-rassoc", src: "return 2^3^2"},
	{name: "arith-hex", src: "return 0x10"},
	{name: "arith-exp", src: "return 1e3"},
	{name: "arith-exp-neg", src: "return 2.5e-1"},
	{name: "arith-leading-dot", src: "return .5"},
	{name: "cmp-lt", src: "return 1 < 2"},
	{name: "cmp-le", src: "return 2 <= 2"},
	{name: "cmp-gt", src: "return 3 > 4"},
	{name: "cmp-ge", src: "return 3 >= 3"},
	{name: "cmp-str", src: `return "abc" < "abd"`},
	{name: "cmp-eq", src: "return 1 == 1"},
	{name: "cmp-ne", src: "return 1 ~= 2"},
	{name: "cmp-no-coercion", src: `return 1 == "1"`},
	{name: "cmp-type-error", src: `return 1 < "2"`},
	{name: "logic-or", src: "return false or 5"},
	{name: "logic-and-or", src: "return nil and 1 or 2"},
	{name: "logic-and", src: "return 3 and 4"},
	{name: "logic-not-nil", src: "return not nil"},
	{name: "logic-not-zero", src: "return not 0"},
	{name: "logic-shortcircuit-or", src: `
		local ran = 0
		local function side() ran = 1 return true end
		local x = true or side()
		return ran`},
	{name: "logic-shortcircuit-and", src: `
		local ran = 0
		local function side() ran = 1 return true end
		local x = false and side()
		return ran`},
	{name: "concat-str", src: `return "a".."b"`},
	{name: "concat-num", src: `return "n="..5`},
	{name: "concat-numnum", src: `return 1 .. 2`},
	{name: "concat-table-error", src: "return {} .. 1"},
	{name: "string-escapes", src: `return "a\nb\t\"c\\"`},
	{name: "string-single", src: `return 'single'`},
	{name: "string-decimal-escapes", src: `return "\65\66\67"`},
	{name: "string-long", src: "return [[multi\nline]]"},
	{name: "string-long-leading-nl", src: "return [[\nabc]]"},
	{name: "len-string", src: `return #"hello"`},
	{name: "len-table", src: "return #{10,20,30}"},

	// ---- scoping, assignment, control flow ----
	{name: "scope-shadow", src: `
		local x = 1
		do
			local x = 2
		end
		return x`},
	{name: "scope-global-capture", src: `
		x = 10
		local function f() return x end
		x = 20
		return f()`},
	{name: "scope-local-from-outer", src: `
		local x = 5
		do
			local x = x + 1
			return x
		end`},
	{name: "multi-assign", src: "local a, b = 1, 2 return a+b"},
	{name: "multi-assign-pad", src: "local a, b = 1 return a + (b == nil and 10 or 0)"},
	{name: "multi-assign-call", src: `
		local function two() return 3, 4 end
		local a, b = two()
		return a*10+b`},
	{name: "multi-assign-truncate", src: `
		local function two() return 3, 4 end
		local a, b, c = two(), 5
		return a*10 + b + (c == nil and 100 or 0)`},
	{name: "multi-assign-globals", src: "a, b = 1, 2 c = a+b return c"},
	{name: "multi-assign-swap", src: "local a, b = 1, 2 a, b = b, a return a*10+b"},
	{name: "if-elseif-else", src: `
		local function grade(n)
			if n >= 90 then return "A"
			elseif n >= 80 then return "B"
			elseif n >= 70 then return "C"
			else return "F" end
		end
		return grade(95)..grade(85)..grade(75)..grade(10)`},
	{name: "while-break", src: `
		local i, sum = 1, 0
		while true do
			sum = sum + i
			i = i + 1
			if i > 10 then break end
		end
		return sum`},
	{name: "repeat-until", src: `
		local i = 0
		repeat i = i + 1 until i >= 5
		return i`},
	{name: "numfor-sum", src: "local s=0 for i=1,10 do s=s+i end return s"},
	{name: "numfor-negative-step", src: "local s=0 for i=10,1,-2 do s=s+i end return s"},
	{name: "numfor-empty", src: "local s=0 for i=1,0 do s=s+1 end return s"},
	{name: "numfor-zero-step-error", src: "for i=1,10,0 do end"},
	{name: "genfor-pairs", src: `
		local t = {a=1, b=2, c=3}
		local sum = 0
		for k, v in pairs(t) do sum = sum + v end
		return sum`},
	{name: "genfor-ipairs", src: `
		local t = {10, 20, 30}
		local keys = ""
		for i, v in ipairs(t) do keys = keys .. i end
		return keys`},
	{name: "genfor-break", src: `
		local n = 0
		for k, v in pairs({1,2,3,4}) do
			n = n + 1
			if n == 2 then break end
		end
		return n`},

	// ---- tables ----
	{name: "table-index", src: "return ({1,2,3})[2]"},
	{name: "table-field", src: `return ({name="srv", port=80}).name`},
	{name: "table-computed-key", src: `return ({[1+1]=7})[2]`},
	{name: "table-mixed", src: `
		local t = {1, 2, x=9, 3}
		return t[3] + t.x`},
	{name: "table-trailing-call-expands", src: `
		local function three() return 7, 8, 9 end
		local t = {three()}
		return #t`},
	{name: "table-fig3-idiom", src: `
		local nj1, nj5, nj15 = 1.5, 0.5, 0.2
		local t = {nj1, nj5, nj15}
		return t[1]*100 + t[2]*10 + t[3]`},
	{name: "table-assign-forms", src: `
		local t = {}
		t.x = 1
		t["y"] = 2
		t[1] = 3
		return t.x + t.y + t[1]`},
	{name: "table-nested-assign", src: `
		local t = {a={b={}}}
		t.a.b.c = 42
		return t.a.b.c`},
	{name: "table-debug-render", src: `return {3, "s", yes=true, [2.5]=nil, nested={1}}`},

	// ---- functions, closures, upvalues ----
	{name: "func-add", src: `
		local function add(a, b) return a + b end
		return add(2, 3)`},
	{name: "closure-counter", src: `
		local function counter()
			local n = 0
			return function() n = n + 1 return n end
		end
		local c = counter()
		c() c()
		return c()`},
	{name: "closure-shared-cell", src: `
		local function mk()
			local n = 0
			local function inc() n = n + 1 end
			local function get() return n end
			return inc, get
		end
		local inc, get = mk()
		inc() inc() inc()
		return get()`},
	{name: "closure-recursion", src: `
		local function fact(n)
			if n <= 1 then return 1 end
			return n * fact(n-1)
		end
		return fact(6)`},
	{name: "closure-per-iteration-numfor", src: `
		local fns = {}
		for i = 1, 3 do fns[i] = function() return i end end
		return fns[1]() * 100 + fns[2]() * 10 + fns[3]()`},
	{name: "closure-per-iteration-while", src: `
		local fns = {}
		local i = 1
		while i <= 3 do
			local j = i
			fns[i] = function() return j end
			i = i + 1
		end
		return fns[1]() * 100 + fns[2]() * 10 + fns[3]()`},
	{name: "closure-loop-var-mutation", src: `
		local fns = {}
		for i = 1, 2 do
			fns[i] = function() i = i + 10 return i end
		end
		return fns[1]() + fns[2]() + fns[1]()`},
	{name: "global-function-stmt", src: `
		function double(x) return 2*x end
		return double(21)`},
	{name: "global-function-field", src: `
		lib = {}
		function lib.helper(x) return x + 1 end
		return lib.helper(1)`},
	{name: "method-self", src: `
		local account = {balance = 100}
		function account:deposit(n) self.balance = self.balance + n end
		account:deposit(50)
		return account.balance`},
	{name: "method-label", src: `
		local mon = {name = "LoadAvg"}
		function mon:label(prefix) return prefix .. self.name end
		return mon:label("m:")`},
	{name: "varargs-sum", src: `
		local function sum(...)
			local t = {...}
			local s = 0
			for i, v in ipairs(t) do s = s + v end
			return s
		end
		return sum(1, 2, 3, 4)`},
	{name: "varargs-passthrough", src: `
		local function pack(...) return ... end
		return pack(1, "a", true)`},
	{name: "multret-paren-truncates", src: `
		local function two() return 1, 2 end
		return (two())`},
	{name: "multret-tail-expands", src: `
		local function two() return 1, 2 end
		local function add(a, b) return a + b end
		return add(two())`},
	{name: "multret-nontail-truncates", src: `
		local function two() return 1, 2 end
		local function add(a, b) return a + (b or 0) end
		return add(two(), 10)`},

	// ---- stdlib (stdlib_test.go, interp_test.go) ----
	{name: "string-lib", src: `return string.len("hello"), string.sub("hello", 2, 4), string.sub("hello", -3), string.upper("abc"), string.rep("ab", 3)`},
	{name: "string-find", src: `return (string.find("hello world", "world"))`},
	{name: "string-format", src: `return string.format("%s=%d (%.1f)", "x", 42, 2.25)`},
	{name: "string-method-chain", src: `return ("chain"):upper()`},
	{name: "string-method-local", src: `local s = "hello" return s:len()`},
	{name: "math-lib", src: "return math.floor(2.7), math.ceil(2.1), math.abs(-5), math.max(1, 9, 4), math.min(1, 9, 4), math.sqrt(81)"},
	{name: "math-huge", src: "return math.huge > 1e300"},
	{name: "table-insert-remove", src: `
		local t = {1, 2}
		table.insert(t, 3)
		table.insert(t, 1, 0)
		local v = table.remove(t)
		return table.concat(t, ",") .. "|" .. v`},
	{name: "table-sort", src: `
		local t = {3, 1, 2}
		table.sort(t)
		return table.concat(t, "")`},
	{name: "table-sort-comparator", src: `
		local t = {"bb", "a", "ccc"}
		table.sort(t, function(x, y) return #x < #y end)
		return table.concat(t, ",")`},
	{name: "builtin-type", src: `return type(nil), type(1), type("s"), type({}), type(print)`},
	{name: "builtin-tostring", src: "return tostring(true), tostring(2.5)"},
	{name: "builtin-tonumber", src: `return tonumber("42"), tonumber(" 3.5 "), tonumber("nope") == nil`},
	{name: "lua4-aliases", src: `return strlen("abc"), strsub("hello", 1, 2), getn({7, 8})`},
	{name: "pcall-catch", src: `
		local ok, msg = pcall(function() error("x") end)
		return ok`},
	{name: "pcall-value", src: `
		local ok, v = pcall(function() return 7 end)
		return v`},
	{name: "pcall-runtime-error", src: `
		local ok, msg = pcall(function() local t = nil return t.x end)
		return ok`},
	{name: "assert-pass", src: "return assert(42)"},
	{name: "assert-fail", src: `assert(false, "custom")`},
	{name: "error-position", src: "local a = 1\nlocal b = nil\nreturn b.x"},
	{name: "error-value", src: `error("boom")`},
	{name: "call-non-function", src: "local x = 5 return x()"},
	{name: "stack-overflow", src: `
		local function f() return f() end
		return f()`},
	{name: "rawget-rawset", src: `
		local t = {}
		rawset(t, "k", 2)
		return rawget(t, "k")`},
	{name: "comments", src: `
		-- line comment
		local x = 1 -- trailing
		--[[ block
		comment ]]
		return x`},
	{name: "interp-global-state", src: "g = (g or 0) + 1 return g"},

	// ---- paper listings (EXPERIMENTS.md E6/E7; Figs. 3, 4, 7) ----
	{name: "fig3-update", setup: func(in *Interp) {
		in.SetGlobal("readloadavg", Func("readloadavg", func(_ *Interp, _ []Value) ([]Value, error) {
			return []Value{Number(1.25), Number(0.75), Number(0.5)}, nil
		}))
	}, src: `
		local update = function()
			local nj1, nj5, nj15 = readloadavg()
			return {nj1, nj5, nj15}
		end
		return update()`},
	{name: "fig3-aspect", src: `
		local aspect = function(self, currval, monitor)
			if currval[1] > currval[2] then
				return "yes"
			else
				return "no"
			end
		end
		return aspect(nil, {2.0, 1.0, 0.5}, nil), aspect(nil, {0.5, 1.0, 2.0}, nil)`},
	{name: "fig4-predicate", src: `
		local pred = function(observer, value, monitor)
			local incr
			incr = monitor:getAspectValue("Increasing")
			return value[1] > 50 and incr == "yes"
		end
		local mon = {getAspectValue = function(self, name) return "yes" end}
		return pred(nil, {60, 40, 30}, mon), pred(nil, {10, 40, 30}, mon)`},
	{name: "fig7-strategy", src: `
		local strategy = function(self)
			self._loadavg = self._loadavgmon:getValue()
			local query
			query = "LoadAvg < 50 and LoadAvgIncreasing == no"
			if not self:_select(query) then
				return "relaxed"
			end
			return "switched"
		end
		local mkself = function(found)
			return {
				_loadavgmon = {getValue = function(s) return {60} end},
				_select = function(s, q) return found end,
			}
		end
		return strategy(mkself(true)), strategy(mkself(false))`},
	{name: "host-injection", setup: func(in *Interp) {
		in.SetGlobal("readfrom", Func("readfrom", func(_ *Interp, args []Value) ([]Value, error) {
			return []Value{Number(1.5), Number(0.5), Number(0.25)}, nil
		}))
	}, src: `
		local nj1, nj5, nj15 = readfrom("/proc/loadavg")
		return {nj1, nj5, nj15}`},
	{name: "host-callback", setup: func(in *Interp) {
		in.SetGlobal("apply", Func("apply", func(i *Interp, args []Value) ([]Value, error) {
			return i.CallNested(args[0], []Value{Number(20)})
		}))
	}, src: "return apply(function(x) return x + 1 end)"},

	// ---- hostile scripts under explicit budgets (PR 8 sandbox) ----
	// Budget aborts are part of the observable semantics now: a shipped
	// strategy that spins, allocates, or recurses without bound must fail
	// with the same classified error on the VM and the reference.
	{name: "hostile-infinite-loop", opts: Options{MaxSteps: 10000},
		src: `local i = 0 while true do i = i + 1 end`},
	{name: "hostile-table-bomb", opts: Options{MaxSteps: -1, MemBudget: 1 << 16},
		src: `local t = {} local i = 1 while true do t[i] = i i = i + 1 end`},
	{name: "hostile-concat-bomb", opts: Options{MaxSteps: -1, MemBudget: 1 << 16},
		src: `local s = "x" while true do s = s .. s end`},
	{name: "hostile-rep-bomb", opts: Options{MemBudget: 1 << 16},
		src: `return string.rep("a", 100000)`},
	{name: "hostile-deep-recursion", opts: Options{MaxSteps: -1},
		src: `local function f(n) return f(n + 1) end return f(0)`},
	{name: "hostile-budget-inside-pcall", opts: Options{MaxSteps: 10000},
		src: `local ok, e = pcall(function() while true do end end) return ok`},

	// ---- VM-targeted cases (PR 10, append-only) ----
	// These pin the corners where a register VM most plausibly diverges
	// from the tree-walker: per-iteration upvalue capture, budget aborts
	// through nested pcall, vararg forwarding, repeat-until scoping,
	// multi-value truncation, and evaluation-order details.
	{name: "vm-upval-capture-numfor",
		src: `local fs = {} for i = 1, 3 do fs[i] = function() return i end end
			return fs[1](), fs[2](), fs[3]()`},
	{name: "vm-upval-capture-while",
		src: `local fs = {} local i = 1
			while i <= 3 do local j = i * 10 fs[i] = function() return j end i = i + 1 end
			return fs[1]() + fs[2]() + fs[3]()`},
	{name: "vm-upval-capture-genfor",
		src: `local fs = {} for k, v in ipairs({5, 6, 7}) do fs[k] = function() return v end end
			return fs[1](), fs[2](), fs[3]()`},
	{name: "vm-upval-shared-counter",
		src: `local function counter() local n = 0 return function() n = n + 1 return n end end
			local c = counter() c() c() return c()`},
	{name: "vm-nested-pcall-budget-abort", opts: Options{MaxSteps: 8000},
		src: `local ok1 = pcall(function() return pcall(function() while true do end end) end)
			return ok1`},
	{name: "vm-nested-pcall-ordinary-error",
		src: `return pcall(function() return pcall(function() error("deep") end) end)`},
	{name: "vm-vararg-forward",
		src: `local function pass(...) return ... end return pass(1, nil, 3)`},
	{name: "vm-vararg-forward-middle",
		src: `local function pass(...) return ... end
			local function mid(...) return pass(...), 99 end
			return mid(1, 2, 3)`},
	{name: "vm-vararg-into-table",
		src: `local function t(...) return {...} end local x = t(4, 5, 6)
			return x[1] + x[2] + x[3]`},
	{name: "vm-vararg-call-args",
		src: `local function add3(a, b, c) return a + b + c end
			local function fwd(...) return add3(...) end
			return fwd(1, 2, 3)`},
	{name: "vm-vararg-after-fixed",
		src: `local function f(a, ...) return a, ... end return f(1, 2, 3)`},
	{name: "vm-repeat-until-outer-scope",
		src: `local x = 5 local n = 0
			repeat local x = 10 n = n + 1 until x == 5 and n > 0
			return n`},
	{name: "vm-repeat-break",
		src: `local n = 0 repeat n = n + 1 if n == 3 then break end until false return n`},
	{name: "vm-multi-return-truncate",
		src: `local function two() return 1, 2 end
			local a, b, c = two(), 10 return a, b, c`},
	{name: "vm-multi-return-middle-truncate",
		src: `local function two() return 1, 2 end return two(), two()`},
	{name: "vm-multi-return-parens",
		src: `local function two() return 1, 2 end return (two())`},
	{name: "vm-multi-assign-swap",
		src: `local a, b = 1, 2 a, b = b, a return a, b`},
	{name: "vm-multi-assign-index-order",
		src: `local t = {} local i = 1 i, t[i] = i + 1, 20 return i, t[1], t[2]`},
	{name: "vm-and-or-self-assign",
		src: `local x = 5 local y = nil local a = y and x local b = x or 9
			x = y and x return a, b, x`},
	{name: "vm-numfor-var-mutation-ignored",
		src: `local s = "" for i = 1, 3 do s = s .. i i = 100 end return s`},
	{name: "vm-numfor-float-step",
		src: `local s = 0 for i = 1, 2, 0.5 do s = s + i end return s`},
	{name: "vm-numfor-negative-step",
		src: `local s = "" for i = 3, 1, -1 do s = s .. i end return s`},
	{name: "vm-genfor-break",
		src: `local s = 0 for k, v in ipairs({1, 2, 3, 4}) do s = s + v if v >= 3 then break end end
			return s`},
	{name: "vm-table-tail-expand",
		src: `local function three() return 7, 8, 9 end local t = {1, three()}
			return #t, t[4]`},
	{name: "vm-table-tail-no-expand-with-keys",
		src: `local function three() return 7, 8, 9 end local t = {three(), x = 1}
			return #t, t[1], t.x`},
	{name: "vm-string-method-calls",
		src: `local s = "Hello" return s:upper(), s:len()`},
	{name: "vm-index-assign-checks-before-key",
		src: `local ok, e = pcall(function() local t = nil t[f()] = 1 end) return ok, e`},
	{name: "vm-do-block-shadowing",
		src: `local x = 1 do local x = 2 x = 3 end return x`},
	{name: "vm-nested-loop-break",
		src: `local n = 0
			for i = 1, 3 do for j = 1, 3 do n = n + 1 if j == 2 then break end end end
			return n`},
	{name: "vm-concat-chain-numbers",
		src: `return 1 .. 2 .. 3`},
}

// escapeLine keeps one result per golden line even when a script returns
// strings containing newlines or tabs.
var escapeLine = strings.NewReplacer("\\", "\\\\", "\n", "\\n", "\t", "\\t").Replace

// renderResult flattens an evaluation outcome into one comparable line.
func renderResult(vs []Value, err error) string {
	if err != nil {
		return "error: " + escapeLine(err.Error())
	}
	if len(vs) == 0 {
		return "(no values)"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = renderValue(v, 0)
	}
	return escapeLine(strings.Join(parts, " | "))
}

// renderValue renders a value deterministically: table pairs in Pairs
// order, nested tables recursed (bounded) instead of printed as addresses.
func renderValue(v Value, depth int) string {
	t, ok := v.AsTable()
	if !ok {
		if v.Kind() == KindString {
			return fmt.Sprintf("%q", v.ToString())
		}
		return v.ToString()
	}
	if depth > 4 {
		return "{...}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	t.Pairs(func(k, val Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(renderValue(k, depth+1))
		sb.WriteByte('=')
		sb.WriteString(renderValue(val, depth+1))
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// runDiffCase evaluates a corpus case on the reference interpreter; the
// golden file is always generated from it. runDiffCaseOn runs the same case
// on an explicit executor so the verification loop can hold the VM and the
// reference to one golden line.
func runDiffCase(c diffCase) string {
	return runDiffCaseOn(c, newReference)
}

func runDiffCaseOn(c diffCase, newInterp func(Options) *Interp) string {
	in := newInterp(c.opts)
	if c.setup != nil {
		c.setup(in)
	}
	vs, err := in.Eval("diff", c.src)
	return renderResult(vs, err)
}

const goldenPath = "testdata/differential.golden"

func TestDifferentialCorpus(t *testing.T) {
	if *updateGolden {
		var sb strings.Builder
		for _, c := range diffCorpus {
			fmt.Fprintf(&sb, "%s\t%s\n", c.name, runDiffCase(c))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(diffCorpus))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, result, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = result
	}
	seen := map[string]bool{}
	for _, c := range diffCorpus {
		if seen[c.name] {
			t.Fatalf("duplicate corpus case %q", c.name)
		}
		seen[c.name] = true
		wantLine, ok := want[c.name]
		if !ok {
			t.Errorf("case %q missing from golden file (run -update-golden after reviewing)", c.name)
			continue
		}
		for _, eng := range engines {
			if got := runDiffCaseOn(c, eng.new); got != wantLine {
				t.Errorf("case %q (%s) diverged from pre-resolver semantics:\n  got  %s\n  want %s",
					c.name, eng.name, got, wantLine)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("golden case %q has no corpus entry", name)
		}
	}
}
