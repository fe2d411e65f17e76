package script

import "fmt"

// Bytecode compiler: lowers a slot-resolved funcProto to a flat register
// instruction stream executed by vm.go. The compiler runs once per proto,
// lazily on its first call, and the result is cached on the proto itself —
// so ChunkCache hits reuse compiled code across interpreters. A proto over a
// VM limit compiles to its ErrTooLarge, cached the same way.
//
// Register model. The resolver already assigned every unboxed local a flat
// slot index (0..numSlots-1); those indices are used verbatim as the low
// registers, so no separate "local → register" mapping exists. Temporaries
// are stack-allocated above the slots: each statement resets the temp
// pointer to a floor, and loops raise the floor to pin their hidden control
// registers (numeric-for's index/limit/step, generic-for's
// iterator/state/control) for the body's duration. The high-water mark
// becomes the frame's register count.
//
// Step/budget parity. The compiler emits an opStep at every statement entry
// and at every loop head, exactly where the reference interpreter
// (reference_test.go) charges a step — so both charge identical step counts
// and trip budgets on the same statement with the same source line. The
// differential corpus and FuzzVMDiff compare error strings byte-for-byte on
// the strength of this.
//
// Evaluation-order parity. Operands evaluate left to right exactly as the
// reference does. An operand already living in a local slot is used in
// place only when no later operand of the same instruction can call script
// code (which could mutate the slot through a closure); otherwise it is
// copied to a temp at its evaluation point. Instructions write their
// destination register only as their final action, so compiling an
// expression directly into a user slot (e.g. `s = s + i`) is safe.

const (
	// rkConst offsets constant-table indices in RK operands: an operand
	// >= rkConst refers to consts[operand-rkConst], below it to a register.
	rkConst = 1 << 24
	// maxVMRegs bounds a frame's register file; a function beyond it (or
	// beyond rkConst constants) compiles to ErrTooLarge.
	maxVMRegs = 1 << 16
)

// forWhat indexes opCheckNum's operand-description strings.
var forWhat = [...]string{"'for' initial value", "'for' limit", "'for' step"}

// protoCode returns the compiled code for p, compiling on first use. Protos
// are shared read-only across interpreters (ChunkCache), so the cache slot
// is atomic; a racing double-compile produces identical code.
func protoCode(p *funcProto) *vmCode {
	if c := p.vm.Load(); c != nil {
		return c
	}
	c := compileProto(p)
	p.vm.Store(c)
	return c
}

func compileProto(p *funcProto) (code *vmCode) {
	c := &compiler{
		chunk:   p.chunk,
		constIx: make(map[constKey]int32),
		nameIx:  make(map[string]int32),
		free:    p.numSlots,
		floor:   p.numSlots,
		maxRegs: p.numSlots,
		line:    p.line,
	}
	// The limit checks panic with ErrTooLarge; any other panic is a bug.
	defer func() {
		if r := recover(); r != nil {
			if r != ErrTooLarge { //nolint:errorlint // sentinel identity
				panic(r)
			}
			code = &vmCode{err: fmt.Errorf("%s:%d: %w", p.chunk, c.line, ErrTooLarge)}
		}
	}()
	c.stmts(p.body.stmts)
	c.emit(opReturnNone, 0, 0, 0, p.line)
	return &vmCode{
		chunk:   p.chunk,
		ins:     c.ins,
		consts:  c.consts,
		names:   c.names,
		protos:  c.protos,
		numRegs: c.maxRegs,
	}
}

// constKey identifies a literal for constant-table deduplication.
type constKey struct {
	kind Kind
	n    float64
	b    bool
	s    string
}

type compiler struct {
	chunk   string
	ins     []instr
	consts  []Value
	constIx map[constKey]int32
	names   []string
	nameIx  map[string]int32
	protos  []*funcProto

	free    int // next free temp register
	floor   int // statement reset point; raised inside loops
	maxRegs int
	line    int // line of the statement being compiled, for ErrTooLarge

	// breaks holds, per enclosing loop, the opJmp indices emitted by break
	// statements, patched to the loop end on loop exit.
	breaks [][]int
}

func (c *compiler) emit(op opcode, a, b, cc, line int) int {
	c.ins = append(c.ins, instr{op: op, a: int32(a), b: int32(b), c: int32(cc), line: int32(line)})
	return len(c.ins) - 1
}

// patchA/B/C point a previously emitted jump operand at the next
// instruction to be emitted.
func (c *compiler) patchA(at int) { c.ins[at].a = int32(len(c.ins)) }
func (c *compiler) patchB(at int) { c.ins[at].b = int32(len(c.ins)) }
func (c *compiler) patchC(at int) { c.ins[at].c = int32(len(c.ins)) }

// reserve allocates n contiguous temp registers.
func (c *compiler) reserve(n int) int {
	base := c.free
	c.free += n
	if c.free > c.maxRegs {
		c.maxRegs = c.free
		if c.maxRegs > maxVMRegs {
			panic(ErrTooLarge)
		}
	}
	return base
}

func (c *compiler) temp() int { return c.reserve(1) }

// reserveFloor pins n registers starting at the current floor for a loop's
// control state; restoreFloor releases them after the loop body.
func (c *compiler) reserveFloor(n int) int {
	base := c.floor
	c.floor += n
	c.free = c.floor
	if c.floor > c.maxRegs {
		c.maxRegs = c.floor
		if c.maxRegs > maxVMRegs {
			panic(ErrTooLarge)
		}
	}
	return base
}

func (c *compiler) constIdx(v Value) int32 {
	k := constKey{kind: v.kind, n: v.n, b: v.b, s: v.s}
	if i, ok := c.constIx[k]; ok {
		return rkConst + i
	}
	i := int32(len(c.consts))
	if i >= rkConst {
		panic(ErrTooLarge)
	}
	c.consts = append(c.consts, v)
	c.constIx[k] = i
	return rkConst + i
}

func (c *compiler) nameIdx(name string) int {
	if i, ok := c.nameIx[name]; ok {
		return int(i)
	}
	i := int32(len(c.names))
	c.names = append(c.names, name)
	c.nameIx[name] = i
	return int(i)
}

func (c *compiler) protoIdx(p *funcProto) int {
	c.protos = append(c.protos, p)
	return len(c.protos) - 1
}

// constRK returns the RK operand for a literal expression.
func (c *compiler) constRK(e expr) (int, bool) {
	switch ex := e.(type) {
	case *nilExpr:
		return int(c.constIdx(Nil())), true
	case *boolExpr:
		return int(c.constIdx(Bool(ex.val))), true
	case *numberExpr:
		return int(c.constIdx(Number(ex.val))), true
	case *stringExpr:
		return int(c.constIdx(String(ex.val))), true
	}
	return 0, false
}

// hasCall reports whether evaluating e can invoke script code (and thus
// mutate locals through captured boxes). Closure creation alone cannot.
func hasCall(e expr) bool {
	switch ex := e.(type) {
	case *callExpr, *methodCallExpr:
		return true
	case *parenExpr:
		return hasCall(ex.e)
	case *indexExpr:
		return hasCall(ex.obj) || hasCall(ex.key)
	case *binExpr:
		return hasCall(ex.lhs) || hasCall(ex.rhs)
	case *unExpr:
		return hasCall(ex.e)
	case *tableExpr:
		for _, it := range ex.arrayItems {
			if hasCall(it) {
				return true
			}
		}
		for i := range ex.keys {
			if hasCall(ex.keys[i]) || hasCall(ex.vals[i]) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// isMultiExpr reports whether e expands to multiple values in tail
// position. Parenthesized expressions never do.
func isMultiExpr(e expr) bool {
	switch e.(type) {
	case *callExpr, *methodCallExpr, *varargExpr:
		return true
	}
	return false
}

// operand evaluates e to an RK operand at the current program point.
// volatile indicates that script code may run between this evaluation and
// the consuming instruction (a later operand contains a call); in that case
// an unboxed local is copied to a temp so the consuming instruction reads
// the value as of now, exactly as the reference would.
func (c *compiler) operand(e expr, volatile bool) int {
	if k, ok := c.constRK(e); ok {
		return k
	}
	return c.regOperand(e, volatile)
}

// regOperand is operand restricted to a register result (for instructions
// whose operand must be mutable or table-checked in place).
func (c *compiler) regOperand(e expr, volatile bool) int {
	if !volatile {
		if ne, ok := e.(*nameExpr); ok && ne.ref.kind == varLocal && !ne.ref.li.boxed {
			return ne.ref.li.index
		}
	}
	t := c.temp()
	c.exprTo(e, t)
	return t
}

// ---- statements ----

func (c *compiler) stmts(ss []stmt) {
	for _, s := range ss {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s stmt) {
	c.free = c.floor
	c.line = s.nodeLine()
	c.emit(opStep, 0, 0, 0, c.line)
	switch st := s.(type) {
	case *blockStmt:
		c.stmts(st.stmts)
	case *localStmt:
		c.compileLocal(st)
	case *localFuncStmt:
		li := st.info
		pi := c.protoIdx(st.fn.proto)
		if li.boxed {
			// Box first (defined nil) so the function can recurse through
			// its own cell, mirroring the reference's define-then-fill.
			c.emit(opNewBox, li.index, int(c.constIdx(Nil())), 0, st.line)
			t := c.temp()
			c.emit(opClosure, t, pi, 0, st.line)
			c.emit(opSetBox, li.index, t, 0, st.line)
		} else {
			c.emit(opClosure, li.index, pi, 0, st.line)
		}
	case *funcStmt:
		t := c.temp()
		c.emit(opClosure, t, c.protoIdx(st.fn.proto), 0, st.line)
		c.assignTo(st.target, t)
	case *assignStmt:
		c.compileAssign(st)
	case *exprStmt:
		c.callInto(st.call, 0)
	case *ifStmt:
		c.compileIf(st)
	case *whileStmt:
		c.compileWhile(st)
	case *repeatStmt:
		c.compileRepeat(st)
	case *numForStmt:
		c.compileNumFor(st)
	case *genForStmt:
		c.compileGenFor(st)
	case *returnStmt:
		c.compileReturn(st)
	case *breakStmt:
		if len(c.breaks) == 0 {
			// A break with no enclosing loop exits the function with no
			// values (the reference's ctlBreak falls out of its call).
			c.emit(opReturnNone, 0, 0, 0, st.line)
		} else {
			j := c.emit(opJmp, 0, 0, 0, st.line)
			c.breaks[len(c.breaks)-1] = append(c.breaks[len(c.breaks)-1], j)
		}
	default:
		panic(fmt.Sprintf("script: compile: unhandled statement %T", s))
	}
}

func (c *compiler) compileLocal(st *localStmt) {
	if len(st.names) == 1 && len(st.exprs) == 1 {
		li := st.infos[0]
		if li.boxed {
			t := c.temp()
			c.exprTo(st.exprs[0], t)
			c.emit(opNewBox, li.index, t, 0, st.line)
		} else {
			c.exprTo(st.exprs[0], li.index)
		}
		return
	}
	n := len(st.names)
	base := c.reserve(max(n, len(st.exprs)))
	c.listTo(st.exprs, base, n)
	for i, li := range st.infos {
		if li.boxed {
			c.emit(opNewBox, li.index, base+i, 0, st.line)
		} else if li.index != base+i {
			c.emit(opMove, li.index, base+i, 0, st.line)
		}
	}
}

func (c *compiler) compileAssign(st *assignStmt) {
	if len(st.targets) == 1 && len(st.exprs) == 1 {
		// Value first, then target address — the reference's order.
		if ne, ok := st.targets[0].(*nameExpr); ok && ne.ref.kind == varLocal && !ne.ref.li.boxed {
			c.exprTo(st.exprs[0], ne.ref.li.index)
			return
		}
		t := c.temp()
		c.exprTo(st.exprs[0], t)
		c.assignTo(st.targets[0], t)
		return
	}
	n := len(st.targets)
	base := c.reserve(max(n, len(st.exprs)))
	c.listTo(st.exprs, base, n)
	for i, target := range st.targets {
		c.assignTo(target, base+i)
	}
}

// assignTo stores the value in register src into an assignment target.
// Index targets evaluate their object and key here, at assignment time.
func (c *compiler) assignTo(target expr, src int) {
	switch t := target.(type) {
	case *nameExpr:
		switch t.ref.kind {
		case varLocal:
			li := t.ref.li
			if li.boxed {
				c.emit(opSetBox, li.index, src, 0, t.line)
			} else if li.index != src {
				c.emit(opMove, li.index, src, 0, t.line)
			}
		case varUpval:
			c.emit(opSetUpval, t.ref.idx, src, 0, t.line)
		default:
			c.emit(opSetGlobal, c.nameIdx(t.name), src, 0, t.line)
		}
	case *indexExpr:
		save := c.free
		obj := c.regOperand(t.obj, hasCall(t.key))
		// The reference validates the object before evaluating the key.
		c.emit(opCheckTable, obj, 0, 0, t.line)
		key := c.operand(t.key, false)
		c.emit(opSetIndex, obj, key, src, t.line)
		c.free = save
	default:
		panic(fmt.Sprintf("script: compile: unhandled assignment target %T", target))
	}
}

// listTo evaluates an expression list with evalMultiInto semantics into
// regs[base:base+want]: every expression yields one value except the last,
// which expands if it is a call or vararg; the window is padded with nil or
// truncated to want. Extra expressions beyond want are still evaluated.
func (c *compiler) listTo(exprs []expr, base, want int) {
	n := len(exprs)
	if n == 0 {
		if want > 0 {
			c.emit(opLoadNil, base, want, 0, 0)
		}
		return
	}
	for i := 0; i < n-1; i++ {
		c.exprTo(exprs[i], base+i)
	}
	last := exprs[n-1]
	need := want - (n - 1)
	if need <= 0 {
		c.exprTo(last, base+n-1)
		return
	}
	switch ex := last.(type) {
	case *callExpr, *methodCallExpr:
		c.callTo(last, base+n-1, need)
	case *varargExpr:
		c.emit(opVarargN, base+n-1, need, 0, ex.line)
	default:
		c.exprTo(last, base+n-1)
		if need > 1 {
			c.emit(opLoadNil, base+n, need-1, 0, last.nodeLine())
		}
	}
}

func (c *compiler) compileIf(st *ifStmt) {
	save := c.free
	t := c.temp()
	c.exprTo(st.cond, t)
	c.free = save
	j := c.emit(opJmpIfNot, t, 0, 0, st.line)
	c.stmts(st.thenBlock.stmts)
	if st.elseBlock != nil {
		j2 := c.emit(opJmp, 0, 0, 0, st.line)
		c.patchB(j)
		c.stmts(st.elseBlock.stmts)
		c.patchA(j2)
	} else {
		c.patchB(j)
	}
}

func (c *compiler) compileWhile(st *whileStmt) {
	head := len(c.ins)
	c.emit(opStep, 0, 0, 0, st.line) // per-iteration charge, as the reference's loop charges
	c.free = c.floor
	t := c.temp()
	c.exprTo(st.cond, t)
	exit := c.emit(opJmpIfNot, t, 0, 0, st.line)
	c.breaks = append(c.breaks, nil)
	c.stmts(st.body.stmts)
	c.emit(opJmp, head, 0, 0, st.line)
	c.patchB(exit)
	c.endLoop()
}

func (c *compiler) compileRepeat(st *repeatStmt) {
	head := len(c.ins)
	c.emit(opStep, 0, 0, 0, st.line)
	c.breaks = append(c.breaks, nil)
	c.stmts(st.body.stmts)
	c.free = c.floor
	t := c.temp()
	c.exprTo(st.cond, t)
	c.emit(opJmpIfNot, t, head, 0, st.line)
	c.endLoop()
}

// endLoop patches every break in the innermost loop to jump here.
func (c *compiler) endLoop() {
	list := c.breaks[len(c.breaks)-1]
	c.breaks = c.breaks[:len(c.breaks)-1]
	for _, j := range list {
		c.patchA(j)
	}
}

func (c *compiler) compileNumFor(st *numForStmt) {
	// Hidden control registers i/limit/step live at base..base+2, pinned
	// for the body's duration. The user loop variable is a fresh copy (or
	// box) per iteration, so script mutation never affects the hidden i.
	base := c.reserveFloor(3)
	c.exprTo(st.start, base)
	c.emit(opCheckNum, base, 0, 0, st.start.nodeLine())
	c.exprTo(st.limit, base+1)
	c.emit(opCheckNum, base+1, 1, 0, st.limit.nodeLine())
	if st.step != nil {
		c.exprTo(st.step, base+2)
		c.emit(opCheckNum, base+2, 2, 0, st.step.nodeLine())
	} else {
		c.emit(opLoadK, base+2, int(c.constIdx(Number(1))), 0, st.line)
	}
	prep := c.emit(opForPrep, base, 0, 0, st.line)
	head := len(c.ins)
	c.emit(opStep, 0, 0, 0, st.line)
	if st.info.boxed {
		c.emit(opNewBox, st.info.index, base, 0, st.line)
	} else {
		c.emit(opMove, st.info.index, base, 0, st.line)
	}
	c.breaks = append(c.breaks, nil)
	c.stmts(st.body.stmts)
	c.emit(opForLoop, base, head, 0, st.line)
	c.patchB(prep)
	c.endLoop()
	c.floor = base
}

func (c *compiler) compileGenFor(st *genForStmt) {
	n := len(st.infos)
	width := 3 + n
	if len(st.exprs) > width {
		width = len(st.exprs)
	}
	base := c.reserveFloor(width)
	c.listTo(st.exprs, base, 3) // iterator, state, control
	head := len(c.ins)
	c.emit(opStep, 0, 0, 0, st.line)
	call := c.emit(opGenForCall, base, n, 0, st.line)
	for i, li := range st.infos {
		if li.boxed {
			c.emit(opNewBox, li.index, base+3+i, 0, st.line)
		} else {
			c.emit(opMove, li.index, base+3+i, 0, st.line)
		}
	}
	c.breaks = append(c.breaks, nil)
	c.stmts(st.body.stmts)
	c.emit(opJmp, head, 0, 0, st.line)
	c.patchC(call)
	c.endLoop()
	c.floor = base
}

func (c *compiler) compileReturn(st *returnStmt) {
	if len(st.exprs) == 0 {
		c.emit(opReturnNone, 0, 0, 0, st.line)
		return
	}
	last := st.exprs[len(st.exprs)-1]
	if len(st.exprs) == 1 {
		switch last.(type) {
		case *callExpr, *methodCallExpr:
			// Tail position: callee results append straight to the
			// caller's output buffer, no intermediate copy.
			c.callInto(last, wantRet)
			return
		case *varargExpr:
			c.emit(opReturnVarargs, 0, 0, 0, st.line)
			return
		}
	}
	if isMultiExpr(last) {
		c.emit(opMark, 0, 0, 0, st.line)
		for i := 0; i < len(st.exprs)-1; i++ {
			save := c.free
			v := c.operand(st.exprs[i], false)
			c.emit(opPush, v, 0, 0, st.line)
			c.free = save
		}
		if _, ok := last.(*varargExpr); ok {
			c.emit(opPushVarargs, 0, 0, 0, st.line)
		} else {
			c.callInto(last, wantScratch)
		}
		c.emit(opReturnScratch, 0, 0, 0, st.line)
		return
	}
	base := c.reserve(len(st.exprs))
	for i, e := range st.exprs {
		c.exprTo(e, base+i)
	}
	c.emit(opReturn, base, len(st.exprs), 0, st.line)
}

// ---- expressions ----

// exprTo compiles e so its single value lands in register dst. dst is
// written only by the final emitted instruction, so dst may be a live user
// slot (`s = s + i` compiles to one opAdd writing s in place).
func (c *compiler) exprTo(e expr, dst int) {
	switch ex := e.(type) {
	case *nilExpr:
		c.emit(opLoadNil, dst, 1, 0, ex.line)
	case *boolExpr:
		c.emit(opLoadBool, dst, boolToInt(ex.val), 0, ex.line)
	case *numberExpr:
		c.emit(opLoadK, dst, int(c.constIdx(Number(ex.val))), 0, ex.line)
	case *stringExpr:
		c.emit(opLoadK, dst, int(c.constIdx(String(ex.val))), 0, ex.line)
	case *nameExpr:
		switch ex.ref.kind {
		case varLocal:
			li := ex.ref.li
			if li.boxed {
				c.emit(opGetBox, dst, li.index, 0, ex.line)
			} else if li.index != dst {
				c.emit(opMove, dst, li.index, 0, ex.line)
			}
		case varUpval:
			c.emit(opGetUpval, dst, ex.ref.idx, 0, ex.line)
		default:
			c.emit(opGetGlobal, dst, c.nameIdx(ex.name), 0, ex.line)
		}
	case *parenExpr:
		c.exprTo(ex.e, dst)
	case *indexExpr:
		save := c.free
		obj := c.regOperand(ex.obj, hasCall(ex.key))
		key := c.operand(ex.key, false)
		c.emit(opGetIndex, dst, obj, key, ex.line)
		c.free = save
	case *funcExpr:
		c.emit(opClosure, dst, c.protoIdx(ex.proto), 0, ex.line)
	case *callExpr, *methodCallExpr:
		c.callTo(e, dst, 1)
	case *varargExpr:
		c.emit(opVarargN, dst, 1, 0, ex.line)
	case *tableExpr:
		c.tableTo(ex, dst)
	case *unExpr:
		save := c.free
		v := c.operand(ex.e, false)
		var op opcode
		switch ex.op {
		case tokNot:
			op = opNot
		case tokMinus:
			op = opUnm
		case tokHash:
			op = opLen
		default:
			panic(fmt.Sprintf("script: compile: unhandled unary operator %v", ex.op))
		}
		c.emit(op, dst, v, 0, ex.line)
		c.free = save
	case *binExpr:
		c.binTo(ex, dst)
	default:
		panic(fmt.Sprintf("script: compile: unhandled expression %T", e))
	}
}

func (c *compiler) binTo(ex *binExpr, dst int) {
	switch ex.op {
	case tokAnd, tokOr:
		// Short-circuit through a fresh temp: writing dst before the rhs
		// evaluates would clobber dst when it appears in the rhs
		// (`x = y and x`).
		save := c.free
		t := c.temp()
		c.exprTo(ex.lhs, t)
		op := opJmpIfNot
		if ex.op == tokOr {
			op = opJmpIf
		}
		j := c.emit(op, t, 0, 0, ex.line)
		c.exprTo(ex.rhs, t)
		c.patchB(j)
		if t != dst {
			c.emit(opMove, dst, t, 0, ex.line)
		}
		c.free = save
		return
	}
	var op opcode
	switch ex.op {
	case tokPlus:
		op = opAdd
	case tokMinus:
		op = opSub
	case tokStar:
		op = opMul
	case tokSlash:
		op = opDiv
	case tokPercent:
		op = opMod
	case tokCaret:
		op = opPow
	case tokConcat:
		op = opConcat
	case tokEq:
		op = opEq
	case tokNe:
		op = opNe
	case tokLt:
		op = opLt
	case tokLe:
		op = opLe
	case tokGt:
		op = opGt
	case tokGe:
		op = opGe
	default:
		panic(fmt.Sprintf("script: compile: unhandled binary operator %v", ex.op))
	}
	save := c.free
	lhs := c.operand(ex.lhs, hasCall(ex.rhs))
	rhs := c.operand(ex.rhs, false)
	c.emit(op, dst, lhs, rhs, ex.line)
	c.free = save
}

func (c *compiler) tableTo(ex *tableExpr, dst int) {
	// Build in a fresh temp and move last: `x = {x}` must read the old x.
	save := c.free
	t := c.temp()
	c.emit(opNewTable, t, len(ex.arrayItems)+len(ex.keys), 0, ex.line)
	items := ex.arrayItems
	multiTail := len(ex.keys) == 0 && len(items) > 0 && isMultiExpr(items[len(items)-1])
	if multiTail {
		items = items[:len(items)-1]
	}
	for _, it := range items {
		s2 := c.free
		v := c.operand(it, false)
		c.emit(opAppend, t, v, 0, ex.line)
		c.free = s2
	}
	if multiTail {
		last := ex.arrayItems[len(ex.arrayItems)-1]
		c.emit(opMark, 0, 0, 0, ex.line)
		if _, ok := last.(*varargExpr); ok {
			c.emit(opPushVarargs, 0, 0, 0, ex.line)
		} else {
			c.callInto(last, wantScratch)
		}
		c.emit(opAppendScratch, t, 0, 0, ex.line)
	}
	for i := range ex.keys {
		s2 := c.free
		k := c.operand(ex.keys[i], hasCall(ex.vals[i]))
		v := c.operand(ex.vals[i], false)
		c.emit(opTabSet, t, k, v, ex.line)
		c.free = s2
	}
	if t != dst {
		c.emit(opMove, dst, t, 0, ex.line)
	}
	c.free = save
}

// Special want values for calls (besides a fixed result count >= 0).
const (
	wantScratch = -1 // push all results onto the frame's scratch stack
	wantRet     = -2 // append all results to the function's output (tail return)
)

// callTo compiles a call placing exactly want results at dst.
func (c *compiler) callTo(e expr, dst, want int) {
	save := c.free
	base := c.callInto(e, want)
	for k := 0; k < want; k++ {
		if dst+k != base+k {
			c.emit(opMove, dst+k, base+k, 0, e.nodeLine())
		}
	}
	c.free = save
}

// callInto compiles a function or method call. For want >= 0 the results
// land in the returned register window (nil-padded/truncated); wantScratch
// pushes every result onto the scratch stack; wantRet appends every result
// to the function's output buffer and returns from the function.
//
// When the last argument is itself multi-valued (call or vararg), argument
// values are accumulated on the scratch stack (opMark/opPush) because their
// count is unknown at compile time; otherwise arguments are evaluated into
// a contiguous register window, and a script callee borrows that window
// directly — zero per-call allocation.
func (c *compiler) callInto(e expr, want int) int {
	var fnE, objE expr
	var args []expr
	var mname string
	var line int
	method := false
	switch ex := e.(type) {
	case *callExpr:
		fnE, args, line = ex.fn, ex.args, ex.line
	case *methodCallExpr:
		method, objE, mname, args, line = true, ex.obj, ex.name, ex.args, ex.line
	default:
		panic(fmt.Sprintf("script: compile: unhandled call %T", e))
	}
	if len(args) == 0 || !isMultiExpr(args[len(args)-1]) {
		nf := 1
		if method {
			nf = 2
		}
		width := nf + len(args)
		if want > width {
			width = want
		}
		base := c.reserve(width)
		if method {
			c.exprTo(objE, base+1)
			c.emit(opGetMethod, base, base+1, c.nameIdx(mname), line)
		} else {
			c.exprTo(fnE, base)
		}
		for i, a := range args {
			c.exprTo(a, base+nf+i)
		}
		argc := len(args)
		if method {
			argc++
		}
		if want == wantRet {
			c.emit(opCallRet, base, argc, 0, line)
		} else {
			c.emit(opCall, base, argc, want, line)
		}
		return base
	}
	// Scratch-stack path: variadic argument count.
	fnR := c.temp()
	if method {
		objR := c.temp()
		c.exprTo(objE, objR)
		c.emit(opGetMethod, fnR, objR, c.nameIdx(mname), line)
		c.emit(opMark, 0, 0, 0, line)
		c.emit(opPush, objR, 0, 0, line)
	} else {
		c.exprTo(fnE, fnR)
		c.emit(opMark, 0, 0, 0, line)
	}
	for i := 0; i < len(args)-1; i++ {
		save := c.free
		v := c.operand(args[i], false)
		c.emit(opPush, v, 0, 0, line)
		c.free = save
	}
	last := args[len(args)-1]
	if _, ok := last.(*varargExpr); ok {
		c.emit(opPushVarargs, 0, 0, 0, line)
	} else {
		c.callInto(last, wantScratch)
	}
	if want == wantRet {
		c.emit(opCallScratchRet, fnR, 0, 0, line)
		return 0
	}
	resBase := 0
	if want > 0 {
		resBase = c.reserve(want)
	}
	c.emit(opCallScratch, fnR, resBase, want, line)
	return resBase
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
