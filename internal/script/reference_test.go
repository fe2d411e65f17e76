package script

import (
	"fmt"
	"sync"
)

// The tree-walking reference interpreter. It executes a resolved funcProto's
// AST directly, and it is the original executor: the VM (compile.go, vm.go)
// runs every closure in production, and this file keeps the tree-walker as
// the oracle the VM is checked against. The differential corpus, FuzzVMDiff,
// the budget suite and the *TreeWalk benchmarks run their cases on both.
// Everything else — budgets, call, the stdlib, the error helpers — is the
// runtime in interp.go, shared with the VM.

// newReference returns an interpreter that runs every closure on the
// reference interpreter instead of the VM.
func newReference(opts Options) *Interp {
	in := New(opts)
	in.reference = in.callClosureTree
	return in
}

// valueBuf is a pooled []Value for the argument lists the reference
// interpreter passes to script closures, which it recycles after the call.
// (GoFunc arguments are never recycled — builtins such as assert() return
// their argument slice.)
type valueBuf struct{ vs []Value }

var valueBufPool = sync.Pool{New: func() any { return &valueBuf{vs: make([]Value, 0, 8)} }}

func getValueBuf() *valueBuf { return valueBufPool.Get().(*valueBuf) }

func putValueBuf(b *valueBuf) {
	vs := b.vs[:cap(b.vs)]
	clear(vs)
	b.vs = vs[:0]
	valueBufPool.Put(b)
}

// engines lists the two executors, for tests that run each case on both.
var engines = []struct {
	name string
	new  func(Options) *Interp
}{{"vm", New}, {"treewalk", newReference}}

// callClosureTree executes a closure with the tree-walking reference
// interpreter.
func (in *Interp) callClosureTree(cl *Closure, args []Value, depth int) ([]Value, error) {
	p := cl.proto
	// Frame storage is charged per call, not per pool miss: pooled reuse is
	// nondeterministic, and what the budget models is the call's demand.
	if in.memBudget > 0 {
		if err := in.chargeMem(p.numSlots*memValueCost + p.numBoxes*(memValueCost+8)); err != nil {
			return nil, err
		}
	}
	fr := framePool.Get().(*frame)
	fr.in, fr.cl, fr.chunk, fr.depth = in, cl, p.chunk, depth
	if cap(fr.slots) >= p.numSlots {
		fr.slots = fr.slots[:p.numSlots]
	} else {
		fr.slots = make([]Value, p.numSlots)
	}
	if cap(fr.boxes) >= p.numBoxes {
		fr.boxes = fr.boxes[:p.numBoxes]
	} else {
		fr.boxes = make([]*Value, p.numBoxes)
	}
	for i, li := range p.paramInfos {
		v := Nil()
		if i < len(args) {
			v = args[i]
		}
		fr.define(li, v)
	}
	if p.isVararg && len(args) > len(p.paramInfos) {
		fr.varargs = args[len(p.paramInfos):]
	}
	ctl, err := fr.execBlock(p.body)
	putFrame(fr)
	if err != nil {
		return nil, err
	}
	if ctl.kind == ctlReturn {
		return ctl.values, nil
	}
	return nil, nil
}

// ---- frame and pools ----

// frame carries one call's interpretation state: a flat slot array for
// plain locals, heap boxes for captured ones, and the vararg tail. The
// resolver fixed every variable reference to an index, so nothing here is
// looked up by name except globals.
type frame struct {
	in      *Interp
	cl      *Closure
	chunk   string
	depth   int
	slots   []Value
	boxes   []*Value
	varargs []Value
}

var framePool = sync.Pool{New: func() any { return &frame{} }}

// putFrame recycles a frame, dropping every value reference so pooled
// frames do not pin tables or closures against the GC. Return values have
// already been copied out (evalMulti never aliases frame storage).
func putFrame(f *frame) {
	s := f.slots[:cap(f.slots)]
	clear(s)
	f.slots = s[:0]
	b := f.boxes[:cap(f.boxes)]
	clear(b)
	f.boxes = b[:0]
	f.varargs = nil
	f.in, f.cl = nil, nil
	framePool.Put(f)
}

// define initialises a local. Captured locals get a FRESH box on every
// execution of their declaration, which is what gives loop bodies
// per-iteration capture semantics.
func (f *frame) define(li *localInfo, v Value) {
	if li.boxed {
		b := new(Value)
		*b = v
		f.boxes[li.index] = b
	} else {
		f.slots[li.index] = v
	}
}

func (f *frame) getName(ex *nameExpr) Value {
	switch ex.ref.kind {
	case varLocal:
		li := ex.ref.li
		if li.boxed {
			return *f.boxes[li.index]
		}
		return f.slots[li.index]
	case varUpval:
		return *f.cl.upvals[ex.ref.idx]
	default:
		return f.in.globals.GetString(ex.name)
	}
}

func (f *frame) setName(ex *nameExpr, v Value) {
	switch ex.ref.kind {
	case varLocal:
		li := ex.ref.li
		if li.boxed {
			*f.boxes[li.index] = v
		} else {
			f.slots[li.index] = v
		}
	case varUpval:
		*f.cl.upvals[ex.ref.idx] = v
	default:
		f.in.globals.SetString(ex.name, v)
	}
}

// control describes non-linear exits from statement execution. It is a
// value, not a pointer: the common fall-through case is the zero control
// and costs no allocation.
type ctlKind int

const (
	ctlNone ctlKind = iota
	ctlReturn
	ctlBreak
)

type control struct {
	kind   ctlKind
	values []Value
}

func (f *frame) step(line int) error {
	in := f.in
	in.steps++
	if in.budget >= 0 && in.steps > in.budget {
		return fmt.Errorf("%s:%d: %w", f.chunk, line, ErrStepBudget)
	}
	if in.interruptible && in.steps&(budgetCheckInterval-1) == 0 {
		return in.checkInterrupt(f.chunk, line)
	}
	return nil
}

// execBlock runs a statement list. Scoping was settled by the resolver, so
// a block at run time is nothing but its statements.
func (f *frame) execBlock(b *blockStmt) (control, error) {
	for _, s := range b.stmts {
		ctl, err := f.exec(s)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctlNone {
			return ctl, nil
		}
	}
	return control{}, nil
}

func (f *frame) exec(s stmt) (control, error) {
	if err := f.step(s.nodeLine()); err != nil {
		return control{}, err
	}
	switch st := s.(type) {
	case *blockStmt:
		return f.execBlock(st)
	case *localStmt:
		if len(st.names) == 1 && len(st.exprs) == 1 {
			v, err := f.eval(st.exprs[0])
			if err != nil {
				return control{}, err
			}
			f.define(st.infos[0], v)
			return control{}, nil
		}
		buf := getValueBuf()
		vals, err := f.evalMultiInto(buf.vs[:0], st.exprs, len(st.names))
		if err != nil {
			putValueBuf(buf)
			return control{}, err
		}
		buf.vs = vals
		for i, li := range st.infos {
			f.define(li, vals[i])
		}
		putValueBuf(buf)
		return control{}, nil
	case *localFuncStmt:
		// Define first so the function can recurse through its own cell.
		f.define(st.info, Nil())
		fn := f.makeClosure(st.fn)
		if st.info.boxed {
			*f.boxes[st.info.index] = fn
		} else {
			f.slots[st.info.index] = fn
		}
		return control{}, nil
	case *funcStmt:
		fn := f.makeClosure(st.fn)
		return control{}, f.assign(st.target, fn)
	case *assignStmt:
		if len(st.targets) == 1 && len(st.exprs) == 1 {
			v, err := f.eval(st.exprs[0])
			if err != nil {
				return control{}, err
			}
			return control{}, f.assign(st.targets[0], v)
		}
		buf := getValueBuf()
		vals, err := f.evalMultiInto(buf.vs[:0], st.exprs, len(st.targets))
		if err != nil {
			putValueBuf(buf)
			return control{}, err
		}
		buf.vs = vals
		for i, target := range st.targets {
			if err := f.assign(target, vals[i]); err != nil {
				putValueBuf(buf)
				return control{}, err
			}
		}
		putValueBuf(buf)
		return control{}, nil
	case *exprStmt:
		_, err := f.evalN(st.call)
		return control{}, err
	case *ifStmt:
		cond, err := f.eval(st.cond)
		if err != nil {
			return control{}, err
		}
		if cond.Truthy() {
			return f.execBlock(st.thenBlock)
		}
		if st.elseBlock != nil {
			return f.execBlock(st.elseBlock)
		}
		return control{}, nil
	case *whileStmt:
		for {
			if err := f.step(st.line); err != nil {
				return control{}, err
			}
			cond, err := f.eval(st.cond)
			if err != nil {
				return control{}, err
			}
			if !cond.Truthy() {
				return control{}, nil
			}
			ctl, err := f.execBlock(st.body)
			if err != nil {
				return control{}, err
			}
			if ctl.kind != ctlNone {
				if ctl.kind == ctlBreak {
					return control{}, nil
				}
				return ctl, nil
			}
		}
	case *repeatStmt:
		for {
			if err := f.step(st.line); err != nil {
				return control{}, err
			}
			ctl, err := f.execBlock(st.body)
			if err != nil {
				return control{}, err
			}
			if ctl.kind != ctlNone {
				if ctl.kind == ctlBreak {
					return control{}, nil
				}
				return ctl, nil
			}
			cond, err := f.eval(st.cond)
			if err != nil {
				return control{}, err
			}
			if cond.Truthy() {
				return control{}, nil
			}
		}
	case *numForStmt:
		return f.execNumFor(st)
	case *genForStmt:
		return f.execGenFor(st)
	case *returnStmt:
		vals, err := f.evalMulti(st.exprs, -1)
		if err != nil {
			return control{}, err
		}
		return control{kind: ctlReturn, values: vals}, nil
	case *breakStmt:
		return control{kind: ctlBreak}, nil
	default:
		return control{}, rtErr(f.chunk, s.nodeLine(), "unhandled statement %T", s)
	}
}

func (f *frame) execNumFor(st *numForStmt) (control, error) {
	start, err := f.evalNumber(st.start, "'for' initial value")
	if err != nil {
		return control{}, err
	}
	limit, err := f.evalNumber(st.limit, "'for' limit")
	if err != nil {
		return control{}, err
	}
	step := 1.0
	if st.step != nil {
		if step, err = f.evalNumber(st.step, "'for' step"); err != nil {
			return control{}, err
		}
	}
	if step == 0 {
		return control{}, rtErr(f.chunk, st.line, "'for' step is zero")
	}
	for i := start; (step > 0 && i <= limit) || (step < 0 && i >= limit); i += step {
		if err := f.step(st.line); err != nil {
			return control{}, err
		}
		f.define(st.info, Number(i))
		ctl, err := f.execBlock(st.body)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctlNone {
			if ctl.kind == ctlBreak {
				return control{}, nil
			}
			return ctl, nil
		}
	}
	return control{}, nil
}

// execGenFor implements the Lua iterator protocol:
// for v1,...,vn in f, s, ctl do body end — each iteration calls f(s, ctl).
func (f *frame) execGenFor(st *genForStmt) (control, error) {
	buf := getValueBuf()
	vals, err := f.evalMultiInto(buf.vs[:0], st.exprs, 3)
	if err != nil {
		putValueBuf(buf)
		return control{}, err
	}
	buf.vs = vals
	iter, state, ctlVar := vals[0], vals[1], vals[2]
	putValueBuf(buf)
	// Script-closure iterators copy their arguments into frame slots, so
	// one pooled pair buffer can be reused every iteration. Host iterators
	// may retain the slice, so they get a fresh one each time.
	var pairBuf *valueBuf
	if iter.cl != nil {
		pairBuf = getValueBuf()
		defer putValueBuf(pairBuf)
	}
	for {
		if err := f.step(st.line); err != nil {
			return control{}, err
		}
		var pair []Value
		if pairBuf != nil {
			pair = append(pairBuf.vs[:0], state, ctlVar)
			pairBuf.vs = pair
		} else {
			pair = []Value{state, ctlVar}
		}
		rets, err := f.in.call(iter, pair, f.depth+1)
		if err != nil {
			return control{}, err
		}
		var first Value
		if len(rets) > 0 {
			first = rets[0]
		}
		if first.IsNil() {
			return control{}, nil
		}
		ctlVar = first
		for i, li := range st.infos {
			v := Nil()
			if i < len(rets) {
				v = rets[i]
			}
			f.define(li, v)
		}
		c, err := f.execBlock(st.body)
		if err != nil {
			return control{}, err
		}
		if c.kind != ctlNone {
			if c.kind == ctlBreak {
				return control{}, nil
			}
			return c, nil
		}
	}
}

// makeClosure instantiates a closure over the resolver-shared proto. Only
// the capture list is per-instance; capture-free functions share nothing
// but the proto pointer.
func (f *frame) makeClosure(fe *funcExpr) Value {
	p := fe.proto
	if len(p.upvals) == 0 {
		return closureVal(&Closure{proto: p})
	}
	ups := make([]*Value, len(p.upvals))
	for i, ud := range p.upvals {
		if ud.fromParent {
			ups[i] = f.boxes[ud.li.index]
		} else {
			ups[i] = f.cl.upvals[ud.idx]
		}
	}
	return closureVal(&Closure{proto: p, upvals: ups})
}

func (f *frame) assign(target expr, v Value) error {
	switch t := target.(type) {
	case *nameExpr:
		f.setName(t, v)
		return nil
	case *indexExpr:
		obj, err := f.eval(t.obj)
		if err != nil {
			return err
		}
		tbl, ok := obj.AsTable()
		if !ok {
			return rtErr(f.chunk, t.line, "attempt to index a %s value", obj.Kind())
		}
		key, err := f.eval(t.key)
		if err != nil {
			return err
		}
		// Charge per stored entry so a table bomb ("t[i] = i" forever) is
		// bounded by the memory budget, not just the step budget.
		if err := f.in.chargeMemAt(f.chunk, t.line, memEntryCost); err != nil {
			return err
		}
		if err := tbl.Set(key, v); err != nil {
			return rtErr(f.chunk, t.line, "%v", err)
		}
		return nil
	default:
		return rtErr(f.chunk, target.nodeLine(), "cannot assign to %T", target)
	}
}

// evalMulti evaluates an expression list with Lua multi-value semantics:
// every expression yields one value except the last, which expands if it is
// a call or vararg. want < 0 keeps every value; otherwise the result is
// padded/truncated to want. The returned slice never aliases frame storage
// or callee buffers — it is always freshly appended — so callers may retain
// it past pool recycling.
func (f *frame) evalMulti(exprs []expr, want int) ([]Value, error) {
	// Fast path for the dominant "return <one expr>" shape. A call's result
	// slice can pass through untouched: closure returns are freshly built
	// and GoFunc returns are never recycled, so no consumer mutates them.
	// Varargs must still copy — f.varargs aliases the caller's pooled
	// argument buffer, which is recycled as soon as this call returns.
	if want < 0 && len(exprs) == 1 {
		switch exprs[0].(type) {
		case *callExpr, *methodCallExpr:
			return f.evalN(exprs[0])
		case *varargExpr:
			return append([]Value(nil), f.varargs...), nil
		default:
			v, err := f.eval(exprs[0])
			if err != nil {
				return nil, err
			}
			return []Value{v}, nil
		}
	}
	return f.evalMultiInto(nil, exprs, want)
}

// evalMultiInto is evalMulti appending into dst (typically a pooled
// buffer's empty slice) to avoid garbage on hot statement paths.
func (f *frame) evalMultiInto(dst []Value, exprs []expr, want int) ([]Value, error) {
	out := dst
	for i, e := range exprs {
		if i == len(exprs)-1 {
			vs, err := f.evalN(e)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		} else {
			v, err := f.eval(e)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if want >= 0 {
		for len(out) < want {
			out = append(out, Nil())
		}
		out = out[:want]
	}
	return out, nil
}

// evalN evaluates e, preserving multiple results for calls and varargs.
func (f *frame) evalN(e expr) ([]Value, error) {
	switch ex := e.(type) {
	case *callExpr:
		fn, err := f.eval(ex.fn)
		if err != nil {
			return nil, err
		}
		buf := getValueBuf()
		args, err := f.evalMultiInto(buf.vs[:0], ex.args, -1)
		if err != nil {
			putValueBuf(buf)
			return nil, err
		}
		buf.vs = args
		rets, err := f.in.call(fn, args, f.depth+1)
		if fn.cl != nil {
			// Closure calls copy arguments into their frame and return
			// freshly built slices, so the arg buffer can be recycled.
			// GoFuncs may retain args (assert returns them) — leak those.
			putValueBuf(buf)
		}
		if err != nil {
			return nil, wrapCallErr(f.chunk, ex.line, err)
		}
		return rets, nil
	case *methodCallExpr:
		obj, err := f.eval(ex.obj)
		if err != nil {
			return nil, err
		}
		var fn Value
		switch obj.Kind() {
		case KindTable:
			fn = obj.t.GetString(ex.name)
		case KindString:
			// s:len() etc. resolve through the string library.
			if lib, ok := f.in.globals.GetString("string").AsTable(); ok {
				fn = lib.GetString(ex.name)
			}
		}
		if fn.IsNil() {
			return nil, rtErr(f.chunk, ex.line, "attempt to call method %q on a %s value", ex.name, obj.Kind())
		}
		buf := getValueBuf()
		args, err := f.evalMultiInto(append(buf.vs[:0], obj), ex.args, -1)
		if err != nil {
			putValueBuf(buf)
			return nil, err
		}
		buf.vs = args
		rets, err := f.in.call(fn, args, f.depth+1)
		if fn.cl != nil {
			putValueBuf(buf)
		}
		if err != nil {
			return nil, wrapCallErr(f.chunk, ex.line, err)
		}
		return rets, nil
	case *varargExpr:
		// Resolver guarantees we are inside a vararg function.
		return f.varargs, nil
	default:
		v, err := f.eval(e)
		if err != nil {
			return nil, err
		}
		return []Value{v}, nil
	}
}

func (f *frame) evalNumber(e expr, what string) (float64, error) {
	v, err := f.eval(e)
	if err != nil {
		return 0, err
	}
	n, ok := v.AsNumber()
	if !ok {
		return 0, rtErr(f.chunk, e.nodeLine(), "%s must be a number (got %s)", what, v.Kind())
	}
	return n, nil
}

func (f *frame) eval(e expr) (Value, error) {
	switch ex := e.(type) {
	case *nameExpr:
		return f.getName(ex), nil
	case *numberExpr:
		return Number(ex.val), nil
	case *stringExpr:
		return String(ex.val), nil
	case *boolExpr:
		return Bool(ex.val), nil
	case *nilExpr:
		return Nil(), nil
	case *parenExpr:
		return f.eval(ex.e)
	case *indexExpr:
		obj, err := f.eval(ex.obj)
		if err != nil {
			return Nil(), err
		}
		key, err := f.eval(ex.key)
		if err != nil {
			return Nil(), err
		}
		switch obj.Kind() {
		case KindTable:
			return obj.t.Get(key), nil
		case KindString:
			// Allow s:len()-style access through the string library table.
			lib, ok := f.in.globals.GetString("string").AsTable()
			if ok {
				return lib.Get(key), nil
			}
			return Nil(), rtErr(f.chunk, ex.line, "attempt to index a string value")
		default:
			return Nil(), rtErr(f.chunk, ex.line, "attempt to index a %s value (key %s)", obj.Kind(), key.ToString())
		}
	case *funcExpr:
		return f.makeClosure(ex), nil
	case *callExpr, *methodCallExpr, *varargExpr:
		vs, err := f.evalN(e)
		if err != nil {
			return Nil(), err
		}
		if len(vs) == 0 {
			return Nil(), nil
		}
		return vs[0], nil
	case *tableExpr:
		if err := f.in.chargeMemAt(f.chunk, ex.line, memTableCost+(len(ex.arrayItems)+len(ex.keys))*memEntryCost); err != nil {
			return Nil(), err
		}
		t := NewTable()
		for i, item := range ex.arrayItems {
			if i == len(ex.arrayItems)-1 && len(ex.keys) == 0 {
				// Last positional item expands multi-values.
				vs, err := f.evalN(item)
				if err != nil {
					return Nil(), err
				}
				if err := f.in.chargeMemAt(f.chunk, ex.line, len(vs)*memEntryCost); err != nil {
					return Nil(), err
				}
				for _, v := range vs {
					t.Append(v)
				}
			} else {
				v, err := f.eval(item)
				if err != nil {
					return Nil(), err
				}
				t.Append(v)
			}
		}
		for i := range ex.keys {
			k, err := f.eval(ex.keys[i])
			if err != nil {
				return Nil(), err
			}
			v, err := f.eval(ex.vals[i])
			if err != nil {
				return Nil(), err
			}
			if err := t.Set(k, v); err != nil {
				return Nil(), rtErr(f.chunk, ex.line, "%v", err)
			}
		}
		return TableVal(t), nil
	case *unExpr:
		return f.evalUnary(ex)
	case *binExpr:
		return f.evalBinary(ex)
	default:
		return Nil(), rtErr(f.chunk, e.nodeLine(), "unhandled expression %T", e)
	}
}

func (f *frame) evalUnary(ex *unExpr) (Value, error) {
	v, err := f.eval(ex.e)
	if err != nil {
		return Nil(), err
	}
	switch ex.op {
	case tokNot:
		return Bool(!v.Truthy()), nil
	case tokMinus:
		n, ok := v.AsNumber()
		if !ok {
			return Nil(), rtErr(f.chunk, ex.line, "attempt to negate a %s value", v.Kind())
		}
		return Number(-n), nil
	case tokHash:
		switch v.Kind() {
		case KindString:
			return Int(len(v.s)), nil
		case KindTable:
			return Int(v.t.Len()), nil
		default:
			return Nil(), rtErr(f.chunk, ex.line, "attempt to get length of a %s value", v.Kind())
		}
	default:
		return Nil(), rtErr(f.chunk, ex.line, "unhandled unary operator %s", ex.op)
	}
}

func (f *frame) evalBinary(ex *binExpr) (Value, error) {
	// Short-circuit operators first.
	switch ex.op {
	case tokAnd:
		lhs, err := f.eval(ex.lhs)
		if err != nil {
			return Nil(), err
		}
		if !lhs.Truthy() {
			return lhs, nil
		}
		return f.eval(ex.rhs)
	case tokOr:
		lhs, err := f.eval(ex.lhs)
		if err != nil {
			return Nil(), err
		}
		if lhs.Truthy() {
			return lhs, nil
		}
		return f.eval(ex.rhs)
	}
	lhs, err := f.eval(ex.lhs)
	if err != nil {
		return Nil(), err
	}
	rhs, err := f.eval(ex.rhs)
	if err != nil {
		return Nil(), err
	}
	switch ex.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		if lhs.kind == KindNumber && rhs.kind == KindNumber {
			return Number(arith(ex.op, lhs.n, rhs.n)), nil
		}
		return Nil(), arithErr(f.chunk, ex.line, lhs, rhs)
	case tokEq:
		return Bool(lhs.Equal(rhs)), nil
	case tokNe:
		return Bool(!lhs.Equal(rhs)), nil
	case tokConcat:
		ls, lok := concatString(lhs)
		rs, rok := concatString(rhs)
		if !lok || !rok {
			return Nil(), rtErr(f.chunk, ex.line, "attempt to concatenate a %s value",
				pickBadKind(lhs, rhs, lok))
		}
		// Charge the result length: a doubling concat bomb ("s = s .. s")
		// hits the memory ceiling after O(log budget) iterations, long
		// before the step budget would notice it.
		if err := f.in.chargeMemAt(f.chunk, ex.line, len(ls)+len(rs)); err != nil {
			return Nil(), err
		}
		return String(ls + rs), nil
	case tokLt, tokLe, tokGt, tokGe:
		return f.compare(ex, lhs, rhs)
	default:
		return Nil(), rtErr(f.chunk, ex.line, "unhandled operator %s", ex.op)
	}
}

func (f *frame) compare(ex *binExpr, lhs, rhs Value) (Value, error) {
	res, ok := compareValues(lhs, rhs)
	if !ok {
		return Nil(), rtErr(f.chunk, ex.line, "attempt to compare %s with %s", lhs.Kind(), rhs.Kind())
	}
	switch ex.op {
	case tokLt:
		return Bool(res < 0), nil
	case tokLe:
		return Bool(res <= 0), nil
	case tokGt:
		return Bool(res > 0), nil
	case tokGe:
		return Bool(res >= 0), nil
	default:
		return Nil(), rtErr(f.chunk, ex.line, "bad comparison operator")
	}
}
