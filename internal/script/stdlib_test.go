package script

import (
	"time"

	"autoadapt/internal/clock"
	"strings"
	"testing"
)

// Focused stdlib edge-case coverage beyond the happy paths in
// interp_test.go.

func TestStringFormatVariants(t *testing.T) {
	wantStr(t, `return string.format("%5d|", 42)`, "   42|")
	wantStr(t, `return string.format("%-5d|", 42)`, "42   |")
	wantStr(t, `return string.format("%05d", 42)`, "00042")
	wantStr(t, `return string.format("%.3f", 2.5)`, "2.500")
	wantStr(t, `return string.format("%x", 255)`, "ff")
	wantStr(t, `return string.format("%X", 255)`, "FF")
	wantStr(t, `return string.format("%i", 7)`, "7")
	wantStr(t, `return string.format("%e", 1500.0):sub(1, 3)`, "1.5")
	wantStr(t, `return string.format("%q", 'he said "hi"')`, `"he said \"hi\""`)
	wantStr(t, `return string.format("100%%")`, "100%")
	wantStr(t, `return string.format("%s and %s", "a", true)`, "a and true")
}

func TestStringFormatErrors(t *testing.T) {
	in := New(Options{})
	for _, src := range []string{
		`return string.format("%d")`,       // missing argument
		`return string.format("%")`,        // truncated directive
		`return string.format("%z", 1)`,    // unsupported verb
		`return string.format(42 and nil)`, // non-string format
	} {
		if _, err := in.Eval("t", src); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestStringSubEdgeCases(t *testing.T) {
	wantStr(t, `return string.sub("hello", 0)`, "hello")    // clamp low
	wantStr(t, `return string.sub("hello", 2, 99)`, "ello") // clamp high
	wantStr(t, `return string.sub("hello", 4, 2)`, "")      // inverted
	wantStr(t, `return string.sub("hello", -2, -1)`, "lo")  // negative both
	wantStr(t, `return string.sub(123, 1, 2)`, "12")        // number coerces
}

func TestStringRepGuards(t *testing.T) {
	wantStr(t, `return string.rep("a", 0)`, "")
	wantStr(t, `return string.rep("a", -3)`, "")
	in := New(Options{})
	if _, err := in.Eval("t", `return string.rep("aaaa", 10000000)`); err == nil {
		t.Fatal("giant rep accepted")
	}
}

func TestStringFindEdgeCases(t *testing.T) {
	wantNum(t, `local s, e = string.find("aaa", "aa") return s*10 + e`, 12)
	wantBool(t, `return string.find("abc", "zz") == nil`, true)
	wantNum(t, `local s, e = string.find("abc", "") return s*10 + e`, 10)
}

func TestTableRemoveEdgeCases(t *testing.T) {
	wantBool(t, `return table.remove({}) == nil`, true)
	in := New(Options{})
	if _, err := in.Eval("t", `table.remove({1,2}, 9)`); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if _, err := in.Eval("t", `table.insert({1}, 9, "x")`); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if _, err := in.Eval("t", `table.insert({1})`); err == nil {
		t.Fatal("1-arg insert accepted")
	}
}

func TestTableConcatErrors(t *testing.T) {
	in := New(Options{})
	if _, err := in.Eval("t", `return table.concat({1, {}, 3})`); err == nil {
		t.Fatal("concat of table element accepted")
	}
}

func TestTableSortComparatorErrorPropagates(t *testing.T) {
	in := New(Options{})
	_, err := in.Eval("t", `
		local t = {3, 1, 2}
		table.sort(t, function(a, b) error("bad comparator") end)`)
	if err == nil || !strings.Contains(err.Error(), "bad comparator") {
		t.Fatalf("err = %v", err)
	}
	if _, err := in.Eval("t", `table.sort({1, "a"})`); err == nil {
		t.Fatal("incomparable sort accepted")
	}
	if _, err := in.Eval("t", `table.sort(42)`); err == nil {
		t.Fatal("sort of number accepted")
	}
}

func TestLua4Aliases(t *testing.T) {
	// The paper's era used Lua 4 global-function names.
	wantNum(t, `return strlen("abcd")`, 4)
	wantStr(t, `return strsub("abcd", 2, 3)`, "bc")
	wantStr(t, `return format("%d!", 9)`, "9!")
	wantNum(t, `local t = {1} tinsert(t, 2) return getn(t)`, 2)
	wantNum(t, `local t = {1, 2, 3} tremove(t) return getn(t)`, 2)
}

func TestPairsSnapshotSemantics(t *testing.T) {
	// Mutating the table during pairs() iterates the snapshot safely.
	wantNum(t, `
		local t = {a=1, b=2}
		local n = 0
		for k, v in pairs(t) do
			t[k .. "x"] = 99 -- insert during iteration
			n = n + 1
		end
		return n`, 2)
}

func TestRawGetRawSet(t *testing.T) {
	wantNum(t, `
		local t = {}
		rawset(t, "k", 7)
		return rawget(t, "k")`, 7)
	in := New(Options{})
	if _, err := in.Eval("t", `rawset(1, "k", 2)`); err == nil {
		t.Fatal("rawset on number accepted")
	}
	if _, err := in.Eval("t", `rawget(1, "k")`); err == nil {
		t.Fatal("rawget on number accepted")
	}
}

func TestMathLibErrors(t *testing.T) {
	in := New(Options{})
	for _, src := range []string{
		`return math.floor("x")`,
		`return math.max()`,
		`return math.min(1, "a")`,
		`return math.random()`, // no Rand configured
		`return math.random(0)`,
		`return math.random(5, 1)`,
	} {
		if _, err := in.Eval("t", src); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestPcallWithNonFunction(t *testing.T) {
	wantBool(t, `local ok = pcall(42) return ok`, false)
	wantBool(t, `local ok = pcall() return ok`, false)
}

func TestIpairsStopsAtNil(t *testing.T) {
	wantNum(t, `
		local t = {1, 2, 3}
		t[5] = 9 -- sparse: ipairs must stop at the hole
		local n = 0
		for i, v in ipairs(t) do n = n + 1 end
		return n`, 3)
}

func TestErrorWithNonStringValue(t *testing.T) {
	in := New(Options{})
	vs, err := in.Eval("t", `
		local ok, v = pcall(function() error(42) end)
		return ok, v`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Truthy() {
		t.Fatal("pcall should report failure")
	}
	// The message is the stringified value.
	if !strings.Contains(vs[1].Str(), "42") {
		t.Fatalf("error payload = %q", vs[1].Str())
	}
}

func TestOSLibRequiresClock(t *testing.T) {
	in := New(Options{})
	wantBoolIn(t, in, "return os == nil", true)
}

func TestOSLibTimeOfDay(t *testing.T) {
	// A fixed simulated clock gives deterministic time-of-day values —
	// the §VI "time of day" context property for adaptation strategies.
	sim := clock.NewSim(time.Date(2002, 7, 1, 14, 30, 5, 0, time.UTC))
	in := New(Options{Clock: sim})
	vs, err := in.Eval("t", `return os.date("%H"), os.date("%M"), os.date("%w"), os.clock()`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Str() != "14" || vs[1].Str() != "30" || vs[2].Str() != "1" {
		t.Fatalf("date parts = %v %v %v", vs[0].Str(), vs[1].Str(), vs[2].Str())
	}
	if vs[3].Num() != 14*3600+30*60+5 {
		t.Fatalf("os.clock = %v", vs[3].Num())
	}
	uv, err := in.Eval("t", "return os.time()")
	if err != nil || uv[0].Num() == 0 {
		t.Fatalf("os.time = %v, %v", uv, err)
	}
	if _, err := in.Eval("t", `return os.date("%Y")`); err == nil {
		t.Fatal("unsupported date format accepted")
	}
	// A strategy in the paper's §VI style: quiet displays outside work hours.
	vb, err := in.Eval("t", `
		local hour = tonumber(os.date("%H"))
		return hour >= 9 and hour < 18`)
	if err != nil || !vb[0].Truthy() {
		t.Fatalf("time-of-day policy = %v, %v", vb, err)
	}
}

func wantBoolIn(t *testing.T, in *Interp, src string, want bool) {
	t.Helper()
	vs, err := in.Eval("t", src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	b, ok := vs[0].b, vs[0].kind == KindBool
	if !ok || b != want {
		t.Fatalf("Eval(%q) = %v, want %v", src, vs[0].ToString(), want)
	}
}
