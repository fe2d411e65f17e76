package script

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"autoadapt/internal/clock"
)

// Errors returned by the interpreter.
var (
	// ErrStepBudget is returned when a chunk exceeds its execution budget.
	// Shipped code from remote peers runs under this limit so a buggy or
	// hostile predicate cannot wedge a monitor.
	ErrStepBudget = errors.New("script: execution step budget exhausted")
	// ErrWallBudget is returned when a call exceeds Options.WallBudget of
	// wall-clock time. The check is amortized (every budgetCheckInterval
	// steps) and reads Options.Clock, so sim-clock tests trip it
	// deterministically and a blocked builtin is still bounded by the next
	// step the script takes.
	ErrWallBudget = errors.New("script: wall-clock budget exhausted")
	// ErrMemBudget is returned when a call exceeds Options.MemBudget bytes
	// of accounted allocation (tables, table entries, string concats,
	// call-frame slots, and allocating stdlib results). The account is
	// monotonic within one call — frees are not credited back — so it
	// bounds total allocation pressure, not live heap.
	ErrMemBudget = errors.New("script: memory budget exhausted")
	// ErrNotCallable is returned when a non-function is called.
	ErrNotCallable = errors.New("script: value is not callable")
	// ErrTooLarge is returned, position-wrapped, by every call to a function
	// the bytecode compiler cannot lower because it exceeds a VM limit: more
	// than 65 536 registers or 2^24 constants in one function. It is not a
	// budget error, so pcall catches it.
	ErrTooLarge = errors.New("script: function too large for the VM")
)

// RuntimeError is a script-level error with a source position and, when
// raised by error(), the script-provided value.
type RuntimeError struct {
	Chunk string
	Line  int
	Msg   string
	// Value is the argument passed to error(), if any.
	Value Value
}

// Error implements error.
func (e *RuntimeError) Error() string {
	if e.Chunk == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s:%d: %s", e.Chunk, e.Line, e.Msg)
}

// Options configures an interpreter.
type Options struct {
	// Stdout receives print() output. Nil discards it.
	Stdout io.Writer
	// Clock, if set, enables the os.time()/os.date() builtins — the §VI
	// "time of day" context property. Nil leaves the sandbox timeless.
	Clock clock.Clock
	// MaxSteps bounds the number of evaluation steps per top-level call
	// into the interpreter (Eval/Call). Zero means DefaultMaxSteps.
	// Negative means unlimited.
	MaxSteps int
	// Rand, if set, seeds math.random-style builtins deterministically.
	// The function must return a float in [0,1).
	Rand func() float64
	// Cache, if set, is the compiled-chunk cache this interpreter consults
	// before parsing. A single *ChunkCache may be shared by many
	// interpreters across goroutines: resolved chunks are read-only, so
	// hosts that spin up an Interp per request (e.g. the agent's remote
	// config eval) still compile each unique source once.
	Cache *ChunkCache
	// CacheSize sizes the private chunk cache created when Cache is nil.
	// Zero means DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// WallBudget bounds the wall-clock time of each top-level call
	// (Eval/Call/CallCtx). Zero disables the bound. Deadlines are computed
	// and checked against Options.Clock when set (deterministic under a
	// sim clock), the real clock otherwise.
	WallBudget time.Duration
	// MemBudget bounds the bytes of accounted allocation per top-level
	// call (see ErrMemBudget). Zero disables the bound.
	MemBudget int64
}

// DefaultMaxSteps is the per-call step budget applied when Options.MaxSteps
// is zero. It is generous: real strategies in this repository use a few
// hundred steps.
const DefaultMaxSteps = 5_000_000

// Interp is an AdaptScript interpreter: a global environment plus
// configuration.
//
// Concurrency contract: an Interp is NOT safe for concurrent use — it owns
// mutable evaluation state (the step budget) and a mutable globals table, so
// callers that share one across goroutines (e.g. a monitor evaluating
// predicates from its timer and its RPC handler) must serialize access. The
// one exception is the compiled-chunk cache: a *ChunkCache is internally
// locked and may be shared freely between interpreters and goroutines, and
// the funcProto values it hands out are immutable after resolution, so
// concurrent Compile/Eval calls on DIFFERENT Interp values sharing one cache
// are safe and deduplicate parse work.
type Interp struct {
	globals *Table
	opts    Options
	cache   *ChunkCache
	steps   int
	budget  int

	// Sandbox state, reset at each top-level Call/CallCtx. interruptible
	// caches "ctx or deadline is armed" so the common unbudgeted path pays
	// one boolean test per amortization window and nothing else.
	ctx           context.Context
	deadline      time.Time
	interruptible bool
	mem           int64
	memBudget     int64

	// reference, when set, executes every closure call that goes through
	// call instead of the VM. Only the tests set it (reference_test.go), to
	// run the tree-walking reference interpreter that the VM is checked
	// against; stdlib callbacks such as pcall then stay on the reference.
	reference func(cl *Closure, args []Value, depth int) ([]Value, error)
}

// New returns an interpreter with the standard library installed.
func New(opts Options) *Interp {
	in := &Interp{globals: NewTable(), opts: opts}
	switch {
	case opts.Cache != nil:
		in.cache = opts.Cache
	case opts.CacheSize >= 0:
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		in.cache = NewChunkCache(size)
	}
	in.installStdlib()
	return in
}

// SetGlobal stores v as a global. Hosts extend the language this way with
// Func values (the paper's "register C functions so that Lua code can
// call them").
func (in *Interp) SetGlobal(name string, v Value) { in.globals.SetString(name, v) }

// compileChunk parses+resolves src through the chunk cache. mode selects
// whether src is a full chunk or an expression to wrap in "return (src)";
// the wrapper string is only built on a miss, so cache hits do zero parse
// work and zero allocation beyond the lookup.
func (in *Interp) compileChunk(mode byte, chunkName, src string) (*funcProto, error) {
	if in.cache != nil {
		if p, ok := in.cache.lookup(mode, chunkName, src); ok {
			return p, nil
		}
	}
	text := src
	if mode == cacheModeExpr {
		text = "return " + src
	}
	block, err := parseChunk(chunkName, text)
	if err != nil {
		return nil, err
	}
	proto, err := resolveChunk(chunkName, block)
	if err != nil {
		return nil, err
	}
	if in.cache != nil {
		in.cache.store(mode, chunkName, src, proto)
	}
	return proto, nil
}

// Compile parses src into a callable function value without running it.
// chunkName appears in error messages. Identical (chunkName, src) pairs hit
// the chunk cache and share one compiled proto.
func (in *Interp) Compile(chunkName, src string) (Value, error) {
	proto, err := in.compileChunk(cacheModeChunk, chunkName, src)
	if err != nil {
		return Nil(), err
	}
	return closureVal(&Closure{proto: proto}), nil
}

// Eval compiles and runs src as a chunk, returning the values of its
// top-level return statement (if any).
func (in *Interp) Eval(chunkName, src string) ([]Value, error) {
	fn, err := in.Compile(chunkName, src)
	if err != nil {
		return nil, err
	}
	return in.Call(fn, nil)
}

// EvalExpr compiles and runs "return (src)" — convenient for expression
// strings such as trader constraints written in script syntax.
func (in *Interp) EvalExpr(chunkName, src string) (Value, error) {
	proto, err := in.compileChunk(cacheModeExpr, chunkName, src)
	if err != nil {
		return Nil(), err
	}
	vs, err := in.Call(closureVal(&Closure{proto: proto}), nil)
	if err != nil {
		return Nil(), err
	}
	if len(vs) == 0 {
		return Nil(), nil
	}
	return vs[0], nil
}

// CompileFunction compiles src that denotes a function — either a function
// expression ("function(a) ... end") or a chunk whose top-level return
// yields one — runs the wrapper once, and returns the function value. This
// is the install-time half of the wire protocol: strategies and predicates
// arrive as source, get compiled through the cache exactly once, and the
// returned closure is then Call-ed per event with no parse work.
func (in *Interp) CompileFunction(chunkName, src string) (Value, error) {
	proto, err := in.compileChunk(cacheModeExpr, chunkName, src)
	if err != nil {
		var se *SyntaxError
		if !errors.As(err, &se) {
			return Nil(), err
		}
		// Not an expression; treat src as a chunk that returns a function.
		if proto, err = in.compileChunk(cacheModeChunk, chunkName, src); err != nil {
			return Nil(), err
		}
	}
	vs, err := in.Call(closureVal(&Closure{proto: proto}), nil)
	if err != nil {
		return Nil(), err
	}
	if len(vs) == 0 || !vs[0].IsFunction() {
		return Nil(), fmt.Errorf("script: %s did not evaluate to a function", chunkName)
	}
	return vs[0], nil
}

// Call invokes a function value with args, enforcing the step, wall-clock
// and memory budgets.
func (in *Interp) Call(fn Value, args []Value) ([]Value, error) {
	return in.CallCtx(nil, fn, args)
}

// CallCtx is Call with cooperative cancellation: the script is aborted
// (with ctx.Err(), position-wrapped) at the next amortized budget check
// after ctx is done. A nil or never-canceled ctx adds no per-step cost.
func (in *Interp) CallCtx(ctx context.Context, fn Value, args []Value) ([]Value, error) {
	in.steps = 0
	in.budget = in.opts.MaxSteps
	if in.budget == 0 {
		in.budget = DefaultMaxSteps
	}
	in.mem = 0
	in.memBudget = in.opts.MemBudget
	in.ctx = ctx
	in.deadline = time.Time{}
	if in.opts.WallBudget > 0 {
		in.deadline = in.now().Add(in.opts.WallBudget)
	}
	in.interruptible = (ctx != nil && ctx.Done() != nil) || !in.deadline.IsZero()
	return in.call(fn, args, 0)
}

// Context returns the context of the running CallCtx, or Background when
// it was given none. GoFuncs that block on the script's behalf (remote
// calls) use it, so the caller's cancellation and deadline reach them.
func (in *Interp) Context() context.Context {
	if in.ctx == nil {
		return context.Background()
	}
	return in.ctx
}

// now reads the sandbox clock: the injected Options.Clock when present
// (sim-clock tests), the real clock otherwise.
func (in *Interp) now() time.Time {
	if in.opts.Clock != nil {
		return in.opts.Clock.Now()
	}
	return time.Now()
}

// budgetCheckInterval amortizes the wall-clock/cancellation checks: they
// run every this-many steps, so the per-step cost of an armed budget is a
// mask test and the reaction latency to a deadline or cancel is bounded by
// the time the script takes to execute the interval (µs-scale).
const budgetCheckInterval = 1 << 10

// checkInterrupt is the cold half of the VM's opStep: consult the context
// and the wall-clock deadline.
func (in *Interp) checkInterrupt(chunk string, line int) error {
	if in.ctx != nil {
		if err := in.ctx.Err(); err != nil {
			return fmt.Errorf("%s:%d: %w", chunk, line, err)
		}
	}
	if !in.deadline.IsZero() && in.now().After(in.deadline) {
		return fmt.Errorf("%s:%d: %w", chunk, line, ErrWallBudget)
	}
	return nil
}

// chargeMem debits n bytes from the call's memory budget. Builtins that
// allocate proportionally to their inputs (string.rep, table.insert, ...)
// charge through this too. A zero budget means unlimited and costs one
// compare.
func (in *Interp) chargeMem(n int) error {
	if in.memBudget <= 0 {
		return nil
	}
	in.mem += int64(n)
	if in.mem > in.memBudget {
		return ErrMemBudget
	}
	return nil
}

// chargeMemAt is chargeMem with the source position attached to the budget
// error.
func (in *Interp) chargeMemAt(chunk string, line, n int) error {
	if err := in.chargeMem(n); err != nil {
		return fmt.Errorf("%s:%d: %w", chunk, line, err)
	}
	return nil
}

// Accounted allocation costs, in bytes. These deliberately track the
// *model* (a Value slot, a table, a hash entry) rather than Go's exact
// allocator behavior, so the account is deterministic across pool reuse
// and map growth.
const (
	memValueCost = 64  // sizeof(Value)
	memTableCost = 128 // empty Table + headers
	memEntryCost = 64  // one array/hash slot (Value + key overhead)
)

// CallNested invokes a function from inside a builtin without resetting the
// step budget; use this from GoFuncs that receive script callbacks.
func (in *Interp) CallNested(fn Value, args []Value) ([]Value, error) {
	return in.call(fn, args, 0)
}

const maxCallDepth = 200

func (in *Interp) call(fn Value, args []Value, depth int) ([]Value, error) {
	if depth > maxCallDepth {
		return nil, &RuntimeError{Msg: "call stack overflow"}
	}
	switch {
	case fn.gf != nil:
		return fn.gf.Fn(in, args)
	case fn.cl != nil:
		if in.reference != nil {
			return in.reference(fn.cl, args, depth)
		}
		return in.callClosure(fn.cl, args, depth)
	default:
		return nil, fmt.Errorf("%w (got %s)", ErrNotCallable, fn.Kind())
	}
}

// callClosure runs a script function called from Go: a top-level
// Call/Eval, or a stdlib callback such as pcall. Script→script calls inside
// the VM go straight to callVM.
func (in *Interp) callClosure(cl *Closure, args []Value, depth int) ([]Value, error) {
	var out []Value
	if err := in.callVM(cl, args, depth, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// rtErr builds a positioned runtime error.
func rtErr(chunk string, line int, format string, args ...any) error {
	return &RuntimeError{Chunk: chunk, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// arithErr reports an arithmetic operand that is not a number.
func arithErr(chunk string, line int, x, y Value) error {
	return rtErr(chunk, line, "attempt to perform arithmetic on a %s value",
		pickBadKind(x, y, x.kind == KindNumber))
}

// wrapCallErr attaches a call site's position to errors that lack one.
// Budget, cancellation and ErrTooLarge errors pass through unwrapped so
// hosts can classify them with errors.Is after any call depth.
func wrapCallErr(chunk string, line int, err error) error {
	var rt *RuntimeError
	var syn *SyntaxError
	if errors.As(err, &rt) || errors.As(err, &syn) || IsBudgetError(err) || errors.Is(err, ErrTooLarge) {
		return err
	}
	return &RuntimeError{Chunk: chunk, Line: line, Msg: err.Error()}
}

// IsBudgetError reports whether err is a sandbox-resource abort: a step,
// wall-clock or memory budget exhaustion, or the caller's context ending.
// Hosts use this to distinguish "the script is hostile or runaway"
// (quarantine the source) from ordinary script bugs.
func IsBudgetError(err error) bool {
	return errors.Is(err, ErrStepBudget) || errors.Is(err, ErrWallBudget) ||
		errors.Is(err, ErrMemBudget) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

func pickBadKind(lhs, rhs Value, lok bool) Kind {
	if !lok {
		return lhs.Kind()
	}
	return rhs.Kind()
}

func concatString(v Value) (string, bool) {
	switch v.Kind() {
	case KindString:
		return v.s, true
	case KindNumber:
		return v.ToString(), true
	default:
		return "", false
	}
}

func arith(op tokenType, a, b float64) float64 {
	switch op {
	case tokPlus:
		return a + b
	case tokMinus:
		return a - b
	case tokStar:
		return a * b
	case tokSlash:
		return a / b
	case tokPercent:
		// Lua modulo: result has the sign of the divisor.
		m := a - floorDiv(a, b)*b
		return m
	case tokCaret:
		return pow(a, b)
	default:
		return 0
	}
}

func floorDiv(a, b float64) float64 {
	q := a / b
	fq := float64(int64(q))
	if q < 0 && fq != q {
		fq--
	}
	return fq
}

func pow(a, b float64) float64 {
	// Integer fast path keeps results exact for small exponents.
	if b == float64(int(b)) && b >= 0 && b <= 64 {
		r := 1.0
		for i := 0; i < int(b); i++ {
			r *= a
		}
		return r
	}
	return mathPow(a, b)
}

// compareValues orders two values (-1/0/1) when they are comparable: both
// numbers or both strings. Shared by the runtime and the resolver's
// constant folder.
func compareValues(lhs, rhs Value) (int, bool) {
	switch {
	case lhs.kind == KindNumber && rhs.kind == KindNumber:
		switch {
		case lhs.n < rhs.n:
			return -1, true
		case lhs.n > rhs.n:
			return 1, true
		}
		return 0, true
	case lhs.kind == KindString && rhs.kind == KindString:
		return strings.Compare(lhs.s, rhs.s), true
	}
	return 0, false
}
