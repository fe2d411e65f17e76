package script

import "sync/atomic"

// AST node definitions. Every node records the source line it starts on so
// runtime errors can point at shipped code (which arrives as anonymous
// strings and would otherwise be undebuggable).

// node is the common interface of statements and expressions.
type node interface {
	nodeLine() int
}

// ---- resolution metadata ----
//
// The resolver (resolve.go) runs once after parsing and annotates the AST
// with integer addresses so the runtime never looks a variable up by name.
// After resolution the tree is read-only: closures share one funcProto per
// function literal, and cached chunks share the whole tree across calls and
// across interpreters.

// localInfo describes one declared local variable. Slot/box indices are
// assigned when the enclosing function finishes resolving (a local only
// learns whether it is captured — boxed — once the whole function body has
// been seen), so references hold the *localInfo and read index/boxed late.
type localInfo struct {
	name  string
	index int  // index into frame.slots, or frame.boxes when boxed
	boxed bool // captured by an inner function: lives in a heap cell
}

// varKind says where a name resolves to at run time.
type varKind uint8

const (
	varGlobal varKind = iota // zero value: not a local anywhere — globals table
	varLocal                 // slot or box in the current frame (li says which)
	varUpval                 // captured cell reached through the closure
)

// varRef is the resolved address of a nameExpr.
type varRef struct {
	kind varKind
	li   *localInfo // varLocal
	idx  int        // varUpval: index into Closure.upvals
}

// upvalDesc tells makeClosure where to capture each upvalue from.
type upvalDesc struct {
	fromParent bool       // capture the enclosing frame's box ...
	li         *localInfo // ... at li.index
	idx        int        // otherwise re-capture enclosing closure's upvals[idx]
}

type base struct{ line int }

func (b base) nodeLine() int { return b.line }

// ---- statements ----

type stmt interface {
	node
	stmtNode()
}

// blockStmt is a sequence of statements sharing one scope.
type blockStmt struct {
	base
	stmts []stmt
}

// localStmt declares local variables: local a, b = e1, e2.
type localStmt struct {
	base
	names []string
	exprs []expr
	infos []*localInfo // parallel to names; set by the resolver
}

// assignStmt assigns to one or more assignable targets: a, b.c[k] = e1, e2.
type assignStmt struct {
	base
	targets []expr // nameExpr or indexExpr
	exprs   []expr
}

// exprStmt is a function or method call used as a statement.
type exprStmt struct {
	base
	call expr // callExpr or methodCallExpr
}

// ifStmt with elseif chains flattened into nested ifStmt in elseBlock.
type ifStmt struct {
	base
	cond      expr
	thenBlock *blockStmt
	elseBlock *blockStmt // may be nil
}

// whileStmt is while cond do block end.
type whileStmt struct {
	base
	cond expr
	body *blockStmt
}

// repeatStmt is repeat block until cond.
type repeatStmt struct {
	base
	body *blockStmt
	cond expr
}

// numForStmt is for name = start, limit [, step] do body end.
type numForStmt struct {
	base
	name               string
	start, limit, step expr // step may be nil (defaults to 1)
	body               *blockStmt
	info               *localInfo // loop variable; set by the resolver
}

// genForStmt is for n1, n2 in explist do body end (iterator protocol).
type genForStmt struct {
	base
	names []string
	exprs []expr
	body  *blockStmt
	infos []*localInfo // parallel to names; set by the resolver
}

// returnStmt returns zero or more values.
type returnStmt struct {
	base
	exprs []expr
}

// breakStmt exits the innermost loop.
type breakStmt struct {
	base
}

// funcStmt is function a.b.c(...) or function a:b(...) sugar.
type funcStmt struct {
	base
	target   expr // where to store the function (nameExpr or indexExpr)
	isMethod bool // a:b form adds implicit self
	fn       *funcExpr
}

// localFuncStmt is local function name(...) ... end.
type localFuncStmt struct {
	base
	name string
	fn   *funcExpr
	info *localInfo // set by the resolver; declared before fn so it can recurse
}

func (*blockStmt) stmtNode()     {}
func (*localStmt) stmtNode()     {}
func (*assignStmt) stmtNode()    {}
func (*exprStmt) stmtNode()      {}
func (*ifStmt) stmtNode()        {}
func (*whileStmt) stmtNode()     {}
func (*repeatStmt) stmtNode()    {}
func (*numForStmt) stmtNode()    {}
func (*genForStmt) stmtNode()    {}
func (*returnStmt) stmtNode()    {}
func (*breakStmt) stmtNode()     {}
func (*funcStmt) stmtNode()      {}
func (*localFuncStmt) stmtNode() {}

// ---- expressions ----

type expr interface {
	node
	exprNode()
}

// nilExpr, trueExpr, falseExpr are literal singletons by type.
type nilExpr struct{ base }
type boolExpr struct {
	base
	val bool
}
type numberExpr struct {
	base
	val float64
}
type stringExpr struct {
	base
	val string
}

// nameExpr references a variable.
type nameExpr struct {
	base
	name string
	ref  varRef // set by the resolver; zero value means global
}

// indexExpr is a[k] or a.k (dot form stores a string key).
type indexExpr struct {
	base
	obj expr
	key expr
}

// callExpr is f(args).
type callExpr struct {
	base
	fn   expr
	args []expr
}

// methodCallExpr is obj:name(args) — sugar for obj.name(obj, args).
type methodCallExpr struct {
	base
	obj  expr
	name string
	args []expr
}

// funcExpr is a function literal.
type funcExpr struct {
	base
	params   []string
	isVararg bool
	body     *blockStmt
	name     string     // informational, for diagnostics
	proto    *funcProto // resolved once; shared by every closure made from it
}

// binExpr is a binary operation.
type binExpr struct {
	base
	op       tokenType
	lhs, rhs expr
}

// unExpr is a unary operation (not, -, #).
type unExpr struct {
	base
	op tokenType
	e  expr
}

// tableExpr is a table constructor.
type tableExpr struct {
	base
	arrayItems []expr
	keys       []expr // parallel to vals; key nil means positional
	vals       []expr
}

// varargExpr is ... inside a vararg function.
type varargExpr struct{ base }

func (*nilExpr) exprNode()        {}
func (*boolExpr) exprNode()       {}
func (*numberExpr) exprNode()     {}
func (*stringExpr) exprNode()     {}
func (*nameExpr) exprNode()       {}
func (*indexExpr) exprNode()      {}
func (*callExpr) exprNode()       {}
func (*methodCallExpr) exprNode() {}
func (*funcExpr) exprNode()       {}
func (*binExpr) exprNode()        {}
func (*unExpr) exprNode()         {}
func (*tableExpr) exprNode()      {}
func (*varargExpr) exprNode()     {}

// funcProto is the compiled form of a function: its parameters and body,
// resolution results (frame layout, upvalue captures) and metadata for
// diagnostics. A proto is immutable after resolution and shared by every
// closure created from the same function literal, and — through the chunk
// cache — by every interpreter evaluating the same source.
type funcProto struct {
	params     []string
	paramInfos []*localInfo // parallel to params
	isVararg   bool
	body       *blockStmt
	name       string
	chunk      string
	line       int
	numSlots   int // unboxed locals in the frame
	numBoxes   int // boxed (captured) locals in the frame
	upvals     []upvalDesc

	// vm caches the bytecode compiled from this proto (or its ErrTooLarge),
	// populated lazily on the first call (see compile.go). Atomic because
	// resolved protos are shared read-only across interpreters via the
	// ChunkCache; a racing double-compile produces identical code and either
	// store wins.
	vm atomic.Pointer[vmCode]
}
