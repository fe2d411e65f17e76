package script

import "testing"

// Interpreter benchmarks supplementing experiment E7: raw language-kernel
// costs, useful when tuning the VM.

func benchEval(b *testing.B, src string) {
	benchEvalOn(b, src, New)
}

func benchEvalOn(b *testing.B, src string, newInterp func(Options) *Interp) {
	in := newInterp(Options{})
	fn, err := in.Compile("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call(fn, nil); err != nil {
			b.Fatal(err)
		}
	}
}

const fib15Src = `
	local function fib(n)
		if n < 2 then return n end
		return fib(n-1) + fib(n-2)
	end
	return fib(15)`

const numericLoopSrc = `
	local s = 0
	for i = 1, 1000 do s = s + i end
	return s`

func BenchmarkFib15(b *testing.B) {
	benchEval(b, fib15Src)
}

func BenchmarkNumericLoop(b *testing.B) {
	benchEval(b, numericLoopSrc)
}

// Executor-explicit variants of the two gate kernels: the VM pair pins the
// production numbers under their own names, and the TreeWalk pair keeps the
// test reference interpreter measured so the VM's speedup factor (the ≥2×
// Fib15 bar) stays visible in every bench run.

func BenchmarkFib15VM(b *testing.B) {
	benchEvalOn(b, fib15Src, New)
}

func BenchmarkNumericLoopVM(b *testing.B) {
	benchEvalOn(b, numericLoopSrc, New)
}

func BenchmarkFib15TreeWalk(b *testing.B) {
	benchEvalOn(b, fib15Src, newReference)
}

func BenchmarkNumericLoopTreeWalk(b *testing.B) {
	benchEvalOn(b, numericLoopSrc, newReference)
}

// BenchmarkCompileProtoFig7 measures the VM's lazy bytecode-compile cost in
// isolation: parse+resolve once, then time compileProto on the resolved
// proto. This is the one-time cost a ChunkCache miss pays on first call.
func BenchmarkCompileProtoFig7(b *testing.B) {
	in := New(Options{CacheSize: -1})
	fn, err := in.Compile("fig7", benchFig7Src)
	if err != nil {
		b.Fatal(err)
	}
	proto := fn.cl.proto
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := compileProto(proto); code.err != nil {
			b.Fatal(code.err)
		}
	}
}

func BenchmarkTableChurn(b *testing.B) {
	benchEval(b, `
		local t = {}
		for i = 1, 100 do t[i] = i * 2 end
		local s = 0
		for i = 1, 100 do s = s + t[i] end
		return s`)
}

func BenchmarkStringConcat(b *testing.B) {
	benchEval(b, `
		local s = ""
		for i = 1, 50 do s = s .. "x" end
		return #s`)
}

func BenchmarkClosureCreationAndCall(b *testing.B) {
	benchEval(b, `
		local total = 0
		for i = 1, 100 do
			local f = function(x) return x + i end
			total = total + f(i)
		end
		return total`)
}

const benchFig7Src = `return function(self)
	self._loadavg = self._loadavgmon:getValue()
	local query
	query = "LoadAvg < 50 and LoadAvgIncreasing == no"
	if not self:_select(query) then
		self._loadavgmon:attachEventObserver(self._observer, "LoadIncrease",
			[[function(observer, value, monitor)
				return value[1] > 70
			end]])
	end
end`

// BenchmarkCompileFig7 measures the steady-state cost of Compile on the
// default interpreter: after the first iteration every call is a chunk
// cache hit (hash + LRU bump, no lexing or parsing).
func BenchmarkCompileFig7(b *testing.B) {
	in := New(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Compile("fig7", benchFig7Src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFig7NoCache is the same compile with the cache disabled:
// the full lex → parse → resolve pipeline every iteration. The ratio to
// BenchmarkCompileFig7 is the cache's payoff for wire-shipped strategies.
func BenchmarkCompileFig7NoCache(b *testing.B) {
	in := New(Options{CacheSize: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Compile("fig7", benchFig7Src); err != nil {
			b.Fatal(err)
		}
	}
}
