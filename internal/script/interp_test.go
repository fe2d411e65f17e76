package script

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// evalOne runs src and returns the first returned value.
func evalOne(t *testing.T, src string) Value {
	t.Helper()
	in := New(Options{})
	vs, err := in.Eval("test", src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if len(vs) == 0 {
		return Nil()
	}
	return vs[0]
}

func wantNum(t *testing.T, src string, want float64) {
	t.Helper()
	v := evalOne(t, src)
	n, ok := v.AsNumber()
	if !ok || n != want {
		t.Fatalf("Eval(%q) = %v, want %v", src, v.ToString(), want)
	}
}

func wantStr(t *testing.T, src string, want string) {
	t.Helper()
	v := evalOne(t, src)
	s, ok := v.AsString()
	if !ok || s != want {
		t.Fatalf("Eval(%q) = %v, want %q", src, v.ToString(), want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := evalOne(t, src)
	b, ok := v.b, v.kind == KindBool
	if !ok || b != want {
		t.Fatalf("Eval(%q) = %v, want %v", src, v.ToString(), want)
	}
}

func TestArithmetic(t *testing.T) {
	wantNum(t, "return 1+2*3", 7)
	wantNum(t, "return (1+2)*3", 9)
	wantNum(t, "return 10/4", 2.5)
	wantNum(t, "return 7%3", 1)
	wantNum(t, "return -7%3", 2) // Lua modulo takes divisor's sign
	wantNum(t, "return 2^10", 1024)
	wantNum(t, "return -2^2", -4)   // unary minus binds looser than ^
	wantNum(t, "return 2^3^2", 512) // right associative
	wantNum(t, "return 0x10", 16)
	wantNum(t, "return 1e3", 1000)
	wantNum(t, "return 2.5e-1", 0.25)
	wantNum(t, "return .5", 0.5)
}

func TestComparisons(t *testing.T) {
	wantBool(t, "return 1 < 2", true)
	wantBool(t, "return 2 <= 2", true)
	wantBool(t, "return 3 > 4", false)
	wantBool(t, "return 3 >= 3", true)
	wantBool(t, `return "abc" < "abd"`, true)
	wantBool(t, "return 1 == 1", true)
	wantBool(t, "return 1 ~= 2", true)
	wantBool(t, `return 1 == "1"`, false) // no coercion on ==
}

func TestCompareTypeError(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("t", `return 1 < "2"`)
	if err == nil || !strings.Contains(err.Error(), "compare") {
		t.Fatalf("err = %v, want comparison error", err)
	}
}

func TestLogicalOperators(t *testing.T) {
	wantNum(t, "return false or 5", 5)
	wantNum(t, "return nil and 1 or 2", 2)
	wantNum(t, "return 3 and 4", 4)
	wantBool(t, "return not nil", true)
	wantBool(t, "return not 0", false) // 0 is truthy
	// Short circuit: rhs must not run.
	wantNum(t, `
		local ran = 0
		local function side() ran = 1 return true end
		local x = true or side()
		return ran`, 0)
	wantNum(t, `
		local ran = 0
		local function side() ran = 1 return true end
		local x = false and side()
		return ran`, 0)
}

func TestConcat(t *testing.T) {
	wantStr(t, `return "a".."b"`, "ab")
	wantStr(t, `return "n="..5`, "n=5")
	wantStr(t, `return 1 .. 2`, "12")
	in := New(Options{})
	if _, err := in.Eval("t", "return {} .. 1"); err == nil {
		t.Fatal("concat of table should error")
	}
}

func TestStringsAndEscapes(t *testing.T) {
	wantStr(t, `return "a\nb\t\"c\\"`, "a\nb\t\"c\\")
	wantStr(t, `return 'single'`, "single")
	wantStr(t, `return "\65\66\67"`, "ABC")
	wantStr(t, "return [[multi\nline]]", "multi\nline")
	// Leading newline in long string is dropped, as in Lua.
	wantStr(t, "return [[\nabc]]", "abc")
}

func TestLength(t *testing.T) {
	wantNum(t, `return #"hello"`, 5)
	wantNum(t, "return #{10,20,30}", 3)
}

func TestLocalsAndScoping(t *testing.T) {
	wantNum(t, `
		local x = 1
		do
			local x = 2
		end
		return x`, 1)
	wantNum(t, `
		x = 10 -- global
		local function f() return x end
		x = 20
		return f()`, 20)
}

func TestMultipleAssignment(t *testing.T) {
	wantNum(t, "local a, b = 1, 2 return a+b", 3)
	wantNum(t, "local a, b = 1 return a + (b == nil and 10 or 0)", 11)
	wantNum(t, `
		local function two() return 3, 4 end
		local a, b = two()
		return a*10+b`, 34)
	wantNum(t, `
		local function two() return 3, 4 end
		local a, b, c = two(), 5
		-- a=3 (truncated), b=5, c=nil
		return a*10 + b + (c == nil and 100 or 0)`, 135)
	wantNum(t, "a, b = 1, 2 c = a+b return c", 3)
	wantNum(t, "local a, b = 1, 2 a, b = b, a return a*10+b", 21)
}

func TestIfElseifElse(t *testing.T) {
	src := `
		local function grade(n)
			if n >= 90 then return "A"
			elseif n >= 80 then return "B"
			elseif n >= 70 then return "C"
			else return "F" end
		end
		return grade(95)..grade(85)..grade(75)..grade(10)`
	wantStr(t, src, "ABCF")
}

func TestWhileAndBreak(t *testing.T) {
	wantNum(t, `
		local i, sum = 1, 0
		while true do
			sum = sum + i
			i = i + 1
			if i > 10 then break end
		end
		return sum`, 55)
}

func TestRepeatUntil(t *testing.T) {
	wantNum(t, `
		local i = 0
		repeat i = i + 1 until i >= 5
		return i`, 5)
}

func TestNumericFor(t *testing.T) {
	wantNum(t, "local s=0 for i=1,10 do s=s+i end return s", 55)
	wantNum(t, "local s=0 for i=10,1,-2 do s=s+i end return s", 30)
	wantNum(t, "local s=0 for i=1,0 do s=s+1 end return s", 0)
	in := New(Options{})
	if _, err := in.Eval("t", "for i=1,10,0 do end"); err == nil {
		t.Fatal("zero step should error")
	}
}

func TestGenericForPairs(t *testing.T) {
	wantNum(t, `
		local t = {a=1, b=2, c=3}
		local sum = 0
		for k, v in pairs(t) do sum = sum + v end
		return sum`, 6)
	wantStr(t, `
		local t = {10, 20, 30}
		local keys = ""
		for i, v in ipairs(t) do keys = keys .. i end
		return keys`, "123")
	// break inside generic for
	wantNum(t, `
		local n = 0
		for k, v in pairs({1,2,3,4}) do
			n = n + 1
			if n == 2 then break end
		end
		return n`, 2)
}

func TestTableConstructors(t *testing.T) {
	wantNum(t, "return ({1,2,3})[2]", 2)
	wantStr(t, `return ({name="srv", port=80}).name`, "srv")
	wantNum(t, `return ({[1+1]=7})[2]`, 7)
	wantNum(t, `
		local t = {1, 2, x=9, 3}
		return t[3] + t.x`, 12)
	// Trailing call expands.
	wantNum(t, `
		local function three() return 7, 8, 9 end
		local t = {three()}
		return #t`, 3)
	// The paper's Fig. 3 idiom: return {nj1, nj5, nj15}.
	wantNum(t, `
		local nj1, nj5, nj15 = 1.5, 0.5, 0.2
		local t = {nj1, nj5, nj15}
		return t[1]*100 + t[2]*10 + t[3]`, 155.2)
}

func TestTableAssignmentForms(t *testing.T) {
	wantNum(t, `
		local t = {}
		t.x = 1
		t["y"] = 2
		t[1] = 3
		return t.x + t.y + t[1]`, 6)
	wantNum(t, `
		local t = {a={b={}}}
		t.a.b.c = 42
		return t.a.b.c`, 42)
}

func TestFunctionsAndClosures(t *testing.T) {
	wantNum(t, `
		local function add(a, b) return a + b end
		return add(2, 3)`, 5)
	wantNum(t, `
		local function counter()
			local n = 0
			return function() n = n + 1 return n end
		end
		local c = counter()
		c() c()
		return c()`, 3)
	// Two closures share one upvalue cell.
	wantNum(t, `
		local function mk()
			local n = 0
			local function inc() n = n + 1 end
			local function get() return n end
			return inc, get
		end
		local inc, get = mk()
		inc() inc() inc()
		return get()`, 3)
	// Recursion through local function.
	wantNum(t, `
		local function fact(n)
			if n <= 1 then return 1 end
			return n * fact(n-1)
		end
		return fact(6)`, 720)
}

func TestGlobalFunctionStatement(t *testing.T) {
	wantNum(t, `
		function double(x) return 2*x end
		return double(21)`, 42)
	wantNum(t, `
		lib = {}
		function lib.helper(x) return x + 1 end
		return lib.helper(1)`, 2)
}

func TestMethodsAndSelf(t *testing.T) {
	// The paper's object style: tables with methods and self.
	wantNum(t, `
		local account = {balance = 100}
		function account:deposit(n) self.balance = self.balance + n end
		account:deposit(50)
		return account.balance`, 150)
	wantStr(t, `
		local mon = {name = "LoadAvg"}
		function mon:label(prefix) return prefix .. self.name end
		return mon:label("m:")`, "m:LoadAvg")
}

func TestVarargs(t *testing.T) {
	wantNum(t, `
		local function sum(...)
			local t = {...}
			local s = 0
			for i, v in ipairs(t) do s = s + v end
			return s
		end
		return sum(1, 2, 3, 4)`, 10)
}

func TestMultipleReturnsTruncation(t *testing.T) {
	wantNum(t, `
		local function two() return 1, 2 end
		return (two())`, 1) // parens truncate
	wantNum(t, `
		local function two() return 1, 2 end
		local function add(a, b) return a + b end
		return add(two())`, 3) // tail position expands
	wantNum(t, `
		local function two() return 1, 2 end
		local function add(a, b) return a + (b or 0) end
		return add(two(), 10)`, 11) // non-tail truncates to 1
}

func TestStringLibrary(t *testing.T) {
	wantNum(t, `return string.len("hello")`, 5)
	wantStr(t, `return string.sub("hello", 2, 4)`, "ell")
	wantStr(t, `return string.sub("hello", -3)`, "llo")
	wantStr(t, `return string.upper("abc")`, "ABC")
	wantStr(t, `return string.rep("ab", 3)`, "ababab")
	wantNum(t, `return (string.find("hello world", "world"))`, 7)
	wantStr(t, `return string.format("%s=%d (%.1f)", "x", 42, 2.25)`, "x=42 (2.2)")
	wantStr(t, `return ("chain"):upper()`, "CHAIN")
	wantNum(t, `local s = "hello" return s:len()`, 5)
}

func TestMathLibrary(t *testing.T) {
	wantNum(t, "return math.floor(2.7)", 2)
	wantNum(t, "return math.ceil(2.1)", 3)
	wantNum(t, "return math.abs(-5)", 5)
	wantNum(t, "return math.max(1, 9, 4)", 9)
	wantNum(t, "return math.min(1, 9, 4)", 1)
	wantNum(t, "return math.sqrt(81)", 9)
	wantBool(t, "return math.huge > 1e300", true)
}

func TestMathRandomDeterministic(t *testing.T) {
	seq := []float64{0.0, 0.5, 0.99}
	i := 0
	in := New(Options{Rand: func() float64 { v := seq[i%len(seq)]; i++; return v }})
	vs, err := in.Eval("t", "return math.random(10), math.random(10), math.random(1, 6)")
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Num() != 1 || vs[1].Num() != 6 || vs[2].Num() != 6 {
		t.Fatalf("random seq = %v %v %v", vs[0].Num(), vs[1].Num(), vs[2].Num())
	}
}

func TestTableLibrary(t *testing.T) {
	wantNum(t, `
		local t = {1, 2}
		table.insert(t, 3)
		table.insert(t, 1, 0)
		return t[1]*1000 + t[2]*100 + t[3]*10 + t[4]`, 123)
	wantNum(t, `
		local t = {1, 2, 3}
		local v = table.remove(t)
		return v*10 + #t`, 32)
	wantStr(t, `return table.concat({"a","b","c"}, "-")`, "a-b-c")
	wantStr(t, `
		local t = {3, 1, 2}
		table.sort(t)
		return table.concat(t, "")`, "123")
	wantStr(t, `
		local t = {"bb", "a", "ccc"}
		table.sort(t, function(x, y) return #x < #y end)
		return table.concat(t, ",")`, "a,bb,ccc")
}

func TestCoreBuiltins(t *testing.T) {
	wantStr(t, "return type(nil)", "nil")
	wantStr(t, "return type(1)", "number")
	wantStr(t, `return type("s")`, "string")
	wantStr(t, "return type({})", "table")
	wantStr(t, "return type(print)", "function")
	wantStr(t, "return tostring(true)", "true")
	wantStr(t, "return tostring(2.5)", "2.5")
	wantNum(t, `return tonumber("42")`, 42)
	wantNum(t, `return tonumber(" 3.5 ")`, 3.5)
	wantBool(t, `return tonumber("nope") == nil`, true)
}

func TestPrintGoesToStdout(t *testing.T) {
	var buf bytes.Buffer
	in := New(Options{Stdout: &buf})
	if _, err := in.Eval("t", `print("hello", 42, nil)`); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "hello\t42\tnil\n" {
		t.Fatalf("print output = %q", got)
	}
}

func TestErrorAndPcall(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("t", `error("boom")`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.Msg != "boom" {
		t.Fatalf("error() produced %v", err)
	}
	wantBool(t, `
		local ok, msg = pcall(function() error("x") end)
		return ok`, false)
	wantNum(t, `
		local ok, v = pcall(function() return 7 end)
		return v`, 7)
	wantBool(t, `
		local ok, msg = pcall(function() local t = nil return t.x end)
		return ok`, false)
}

func TestAssert(t *testing.T) {
	wantNum(t, "return assert(42)", 42)
	in := New(Options{})
	_, err := in.Eval("t", `assert(false, "custom")`)
	if err == nil || !strings.Contains(err.Error(), "custom") {
		t.Fatalf("assert error = %v", err)
	}
}

func TestRuntimeErrorsCarryPosition(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("mychunk", "local a = 1\nlocal b = nil\nreturn b.x")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "mychunk:3") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"return 1 +",
		"if x then",
		"local 1 = 2",
		"return 'unterminated",
		"return [[unterminated",
		"f(",
		"a ~ b",
		"local a = }",
		"1 + 2", // expression is not a statement
		"return 08x",
	}
	in := New(Options{})
	for _, src := range bad {
		if _, err := in.Eval("t", src); err == nil {
			t.Errorf("Eval(%q) succeeded, want syntax error", src)
		}
	}
}

func TestStepBudget(t *testing.T) {
	in := New(Options{MaxSteps: 10_000})
	_, err := in.Eval("t", "while true do end")
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	// Budget is per top-level call: the next call starts fresh.
	if _, err := in.Eval("t", "return 1"); err != nil {
		t.Fatalf("interpreter unusable after budget exhaustion: %v", err)
	}
}

func TestStepBudgetNotCatchableByPcall(t *testing.T) {
	in := New(Options{MaxSteps: 10_000})
	_, err := in.Eval("t", `pcall(function() while true do end end) return "survived"`)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("pcall swallowed budget exhaustion: %v", err)
	}
}

// TestTooLargeFunction pins the VM's one resource limit: a function that
// needs more than maxVMRegs registers fails every call with a positioned
// ErrTooLarge, an ordinary error that pcall catches. The reference
// interpreter has no such limit and runs the same call.
func TestTooLargeFunction(t *testing.T) {
	call := "f(" + strings.Repeat("1, ", 69_999) + "1)"
	argc := Func("f", func(_ *Interp, args []Value) ([]Value, error) {
		return []Value{Int(len(args))}, nil
	})
	in := New(Options{})
	in.SetGlobal("f", argc)
	for i := 0; i < 2; i++ { // the second Eval hits the cached proto and its cached error
		_, err := in.Eval("big", "local n = 0\nreturn "+call)
		if !errors.Is(err, ErrTooLarge) || !strings.HasPrefix(err.Error(), "big:2: ") {
			t.Fatalf("eval %d: err = %v, want big:2: ErrTooLarge", i, err)
		}
	}
	vs, err := in.Eval("big", "return pcall(function()\nreturn "+call+" end)")
	if err != nil {
		t.Fatalf("pcall did not catch ErrTooLarge: %v", err)
	}
	if len(vs) != 2 || vs[0].Truthy() || vs[1].ToString() != "big:2: "+ErrTooLarge.Error() {
		t.Fatalf("pcall = %v, want false, big:2: %v", vs, ErrTooLarge)
	}

	ref := newReference(Options{})
	ref.SetGlobal("f", argc)
	vs, err = ref.Eval("big", "return "+call)
	if err != nil || len(vs) != 1 || vs[0].Num() != 70_000 {
		t.Fatalf("reference = %v, %v; want 70000", vs, err)
	}
}

func TestCallStackOverflow(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("t", `
		local function f() return f() end
		return f()`)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestCallNonFunction(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("t", "local x = 5 return x()")
	if !errors.Is(err, ErrNotCallable) {
		// The error is wrapped in a RuntimeError with position; unwrap by
		// message instead.
		if err == nil || !strings.Contains(err.Error(), "not callable") {
			t.Fatalf("err = %v, want not-callable", err)
		}
	}
}

func TestHostFunctionInjection(t *testing.T) {
	in := New(Options{})
	calls := 0
	in.SetGlobal("readfrom", Func("readfrom", func(_ *Interp, args []Value) ([]Value, error) {
		calls++
		return []Value{Number(1.5), Number(0.5), Number(0.25)}, nil
	}))
	vs, err := in.Eval("t", `
		local nj1, nj5, nj15 = readfrom("/proc/loadavg")
		return {nj1, nj5, nj15}`)
	if err != nil {
		t.Fatal(err)
	}
	tb, ok := vs[0].AsTable()
	if !ok || tb.Index(1).Num() != 1.5 || tb.Index(3).Num() != 0.25 {
		t.Fatalf("host call result = %v", vs[0].ToString())
	}
	if calls != 1 {
		t.Fatalf("host function called %d times", calls)
	}
}

func TestHostFunctionReceivesScriptCallback(t *testing.T) {
	in := New(Options{})
	in.SetGlobal("apply", Func("apply", func(i *Interp, args []Value) ([]Value, error) {
		return i.CallNested(args[0], []Value{Number(20)})
	}))
	wantNum(t, `return 0`, 0) // separate interp warm-up not needed, but keep simple
	vs, err := in.Eval("t", "return apply(function(x) return x + 1 end)")
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Num() != 21 {
		t.Fatalf("callback result = %v", vs[0].Num())
	}
}

func TestCompileSeparateFromRun(t *testing.T) {
	in := New(Options{})
	fn, err := in.Compile("pred", "return ...")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := in.Call(fn, []Value{Int(9), Int(8)})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Num() != 9 || vs[1].Num() != 8 {
		t.Fatalf("chunk varargs = %v", vs)
	}
}

func TestEvalExpr(t *testing.T) {
	in := New(Options{})
	v, err := in.EvalExpr("c", "2 + 3 * 4")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 14 {
		t.Fatalf("EvalExpr = %v", v.Num())
	}
}

func TestComments(t *testing.T) {
	wantNum(t, `
		-- line comment
		local x = 1 -- trailing
		--[[ block
		comment ]]
		return x`, 1)
}

// TestPaperFig3Listing runs the paper's LoadAverageMonitor update function
// (Fig. 3, lines 4-9) adapted only in its host primitive: readfrom/read are
// injected by the host, exactly as LuaCorba registers C functions.
func TestPaperFig3Listing(t *testing.T) {
	in := New(Options{})
	in.SetGlobal("readloadavg", Func("readloadavg", func(_ *Interp, _ []Value) ([]Value, error) {
		return []Value{Number(1.25), Number(0.75), Number(0.5)}, nil
	}))
	vs, err := in.Eval("fig3", `
		local update = function()
			local nj1, nj5, nj15 = readloadavg()
			return {nj1, nj5, nj15}
		end
		return update()`)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := vs[0].AsTable()
	if tb == nil || tb.Index(1).Num() != 1.25 || tb.Index(2).Num() != 0.75 {
		t.Fatalf("fig3 update = %v", vs[0].ToString())
	}
}

// TestPaperFig3Aspect runs the "Increasing" aspect function verbatim from
// Fig. 3 lines 15-21 (shipped as a [[...]] string in the paper).
func TestPaperFig3Aspect(t *testing.T) {
	in := New(Options{})
	src := `return function(self, currval, monitor)
		if currval[1] > currval[2] then
			return "yes"
		else
			return "no"
		end
	end`
	vs, err := in.Eval("aspect", src)
	if err != nil {
		t.Fatal(err)
	}
	fn := vs[0]
	rising := NewList(Number(2.0), Number(1.0), Number(0.5))
	falling := NewList(Number(0.5), Number(1.0), Number(2.0))
	out, err := in.Call(fn, []Value{Nil(), TableVal(rising), Nil()})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Str() != "yes" {
		t.Fatalf("rising aspect = %q, want yes", out[0].Str())
	}
	out, err = in.Call(fn, []Value{Nil(), TableVal(falling), Nil()})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Str() != "no" {
		t.Fatalf("falling aspect = %q, want no", out[0].Str())
	}
}

// TestPaperFig4Predicate runs the event-diagnosing function from Fig. 4.
func TestPaperFig4Predicate(t *testing.T) {
	in := New(Options{})
	src := `return function(observer, value, monitor)
		local incr
		incr = monitor:getAspectValue("Increasing")
		return value[1] > 50 and incr == "yes"
	end`
	vs, err := in.Eval("fig4", src)
	if err != nil {
		t.Fatal(err)
	}
	// Fake monitor object with a getAspectValue method.
	mon := NewTable()
	mon.SetString("getAspectValue", Func("getAspectValue", func(_ *Interp, args []Value) ([]Value, error) {
		return []Value{String("yes")}, nil
	}))
	val := NewList(Number(60), Number(40), Number(30))
	out, err := in.Call(vs[0], []Value{Nil(), TableVal(val), TableVal(mon)})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Truthy() {
		t.Fatal("Fig.4 predicate should fire for value 60 with rising load")
	}
	low := NewList(Number(10), Number(40), Number(30))
	out, err = in.Call(vs[0], []Value{Nil(), TableVal(low), TableVal(mon)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Truthy() {
		t.Fatal("Fig.4 predicate fired for value 10")
	}
}

func TestInterpIsReusable(t *testing.T) {
	in := New(Options{})
	for i := 0; i < 10; i++ {
		vs, err := in.Eval("t", "g = (g or 0) + 1 return g")
		if err != nil {
			t.Fatal(err)
		}
		if int(vs[0].Num()) != i+1 {
			t.Fatalf("iteration %d: g = %v", i, vs[0].Num())
		}
	}
}
