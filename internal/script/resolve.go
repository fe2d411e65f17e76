package script

// The resolver is the middle stage of the compile pipeline
// (parse → resolve → cache). It walks the AST once and
//
//   - lexically addresses every variable reference: locals become integer
//     slot indices into a flat frame, captured locals become boxed heap
//     cells, free variables of inner functions become upvalue captures, and
//     everything else falls through to the globals table;
//   - computes each function's frame layout (numSlots/numBoxes) and upvalue
//     capture list, stored on its shared funcProto;
//   - folds constant-only subexpressions using the same arithmetic the
//     runtime uses, so wire-shipped predicates pay for their literal math
//     once at compile time;
//   - rejects '...' outside a vararg function at compile time (the old
//     environment-chain interpreter would silently walk across function
//     boundaries, which no real script relied on).
//
// Scoping decisions here mirror the historical evaluator exactly — the
// differential corpus (differential_test.go) pins that equivalence:
// localStmt initialisers resolve before their names are declared
// ("local x = x" sees the outer x), repeat-until conditions resolve in the
// scope OUTSIDE the body, and loop bodies get per-iteration capture by
// allocating a fresh box each time a captured local's declaration runs.

// funcState tracks resolution for one function nesting level.
type funcState struct {
	enclosing *funcState
	proto     *funcProto
	scopes    []map[string]*localInfo
	locals    []*localInfo // every local in this function, for index assignment
	upvals    []upvalDesc
	upvalIdx  map[string]int // name → index into upvals, to deduplicate
}

type resolver struct {
	chunk string
	fs    *funcState
}

// resolveChunk resolves a parsed chunk into its top-level proto. The chunk
// itself is a vararg function (Call args are reachable via '...').
func resolveChunk(chunkName string, block *blockStmt) (proto *funcProto, err error) {
	r := &resolver{chunk: chunkName}
	proto = &funcProto{body: block, chunk: chunkName, name: chunkName, isVararg: true}
	defer func() {
		if p := recover(); p != nil {
			se, ok := p.(*SyntaxError)
			if !ok {
				panic(p)
			}
			proto, err = nil, se
		}
	}()
	r.beginFunc(proto)
	r.block(block)
	r.endFunc()
	return proto, nil
}

// errf aborts resolution with a position-carrying syntax error. Resolution
// failures are compile-time errors, same as parse failures.
func (r *resolver) errf(line int, msg string) {
	panic(&SyntaxError{Chunk: r.chunk, Line: line, Msg: msg})
}

func (r *resolver) beginFunc(p *funcProto) {
	r.fs = &funcState{enclosing: r.fs, proto: p}
	r.pushScope()
	p.paramInfos = make([]*localInfo, len(p.params))
	for i, name := range p.params {
		p.paramInfos[i] = r.declare(name)
	}
}

// endFunc assigns frame indices: boxed locals number the box array, unboxed
// ones number the slot array. References read index/boxed late through the
// shared *localInfo, so captures discovered after a reference still land.
func (r *resolver) endFunc() {
	fs := r.fs
	for _, li := range fs.locals {
		if li.boxed {
			li.index = fs.proto.numBoxes
			fs.proto.numBoxes++
		} else {
			li.index = fs.proto.numSlots
			fs.proto.numSlots++
		}
	}
	fs.proto.upvals = fs.upvals
	r.fs = fs.enclosing
}

func (r *resolver) pushScope() {
	r.fs.scopes = append(r.fs.scopes, nil)
}

func (r *resolver) popScope() {
	r.fs.scopes = r.fs.scopes[:len(r.fs.scopes)-1]
}

func (r *resolver) declare(name string) *localInfo {
	li := &localInfo{name: name}
	top := len(r.fs.scopes) - 1
	if r.fs.scopes[top] == nil {
		r.fs.scopes[top] = make(map[string]*localInfo, 4)
	}
	r.fs.scopes[top][name] = li // redeclaration shadows, as before
	r.fs.locals = append(r.fs.locals, li)
	return li
}

// resolveName addresses a variable reference from the current function.
func (r *resolver) resolveName(name string) varRef {
	if li := findLocal(r.fs, name); li != nil {
		return varRef{kind: varLocal, li: li}
	}
	if idx, ok := r.resolveUpvalue(r.fs, name); ok {
		return varRef{kind: varUpval, idx: idx}
	}
	return varRef{} // global
}

func findLocal(fs *funcState, name string) *localInfo {
	for i := len(fs.scopes) - 1; i >= 0; i-- {
		if li, ok := fs.scopes[i][name]; ok {
			return li
		}
	}
	return nil
}

// resolveUpvalue finds name in an enclosing function and threads the capture
// down level by level (each intermediate function re-captures its parent's
// upvalue), marking the originating local boxed so it survives its frame.
func (r *resolver) resolveUpvalue(fs *funcState, name string) (int, bool) {
	if fs.enclosing == nil {
		return 0, false
	}
	if idx, ok := fs.upvalIdx[name]; ok {
		return idx, true
	}
	if li := findLocal(fs.enclosing, name); li != nil {
		li.boxed = true
		return addUpval(fs, name, upvalDesc{fromParent: true, li: li}), true
	}
	if idx, ok := r.resolveUpvalue(fs.enclosing, name); ok {
		return addUpval(fs, name, upvalDesc{idx: idx}), true
	}
	return 0, false
}

func addUpval(fs *funcState, name string, d upvalDesc) int {
	idx := len(fs.upvals)
	fs.upvals = append(fs.upvals, d)
	if fs.upvalIdx == nil {
		fs.upvalIdx = make(map[string]int, 4)
	}
	fs.upvalIdx[name] = idx
	return idx
}

// ---- statements ----

func (r *resolver) block(b *blockStmt) {
	r.pushScope()
	r.stmts(b.stmts)
	r.popScope()
}

func (r *resolver) stmts(ss []stmt) {
	for _, s := range ss {
		r.stmt(s)
	}
}

func (r *resolver) stmt(s stmt) {
	switch st := s.(type) {
	case *blockStmt:
		r.block(st)
	case *localStmt:
		// Initialisers see the surrounding scope: "local x = x" reads the
		// outer x. Declare only after every expression is resolved.
		r.exprList(st.exprs)
		st.infos = make([]*localInfo, len(st.names))
		for i, name := range st.names {
			st.infos[i] = r.declare(name)
		}
	case *localFuncStmt:
		// Declared before the body resolves so the function can recurse.
		st.info = r.declare(st.name)
		r.funcLiteral(st.fn)
	case *funcStmt:
		r.funcLiteral(st.fn)
		r.assignTarget(st.target)
	case *assignStmt:
		r.exprList(st.exprs)
		for _, t := range st.targets {
			r.assignTarget(t)
		}
	case *exprStmt:
		st.call = r.expr(st.call)
	case *ifStmt:
		st.cond = r.expr(st.cond)
		r.block(st.thenBlock)
		if st.elseBlock != nil {
			r.block(st.elseBlock)
		}
	case *whileStmt:
		st.cond = r.expr(st.cond)
		r.block(st.body)
	case *repeatStmt:
		// Historical quirk preserved: the until-condition is evaluated in
		// the scope OUTSIDE the body, so it cannot see body locals.
		r.block(st.body)
		st.cond = r.expr(st.cond)
	case *numForStmt:
		st.start = r.expr(st.start)
		st.limit = r.expr(st.limit)
		if st.step != nil {
			st.step = r.expr(st.step)
		}
		r.pushScope()
		st.info = r.declare(st.name)
		r.block(st.body)
		r.popScope()
	case *genForStmt:
		r.exprList(st.exprs)
		r.pushScope()
		st.infos = make([]*localInfo, len(st.names))
		for i, name := range st.names {
			st.infos[i] = r.declare(name)
		}
		r.block(st.body)
		r.popScope()
	case *returnStmt:
		r.exprList(st.exprs)
	case *breakStmt:
		// nothing to resolve
	default:
		r.errf(s.nodeLine(), "unhandled statement in resolver")
	}
}

func (r *resolver) assignTarget(t expr) {
	switch e := t.(type) {
	case *nameExpr:
		e.ref = r.resolveName(e.name)
	case *indexExpr:
		e.obj = r.expr(e.obj)
		e.key = r.expr(e.key)
	default:
		// The evaluator reports "cannot assign to" with position at run
		// time; keep that behaviour rather than rejecting here.
	}
}

func (r *resolver) exprList(es []expr) {
	for i := range es {
		es[i] = r.expr(es[i])
	}
}

func (r *resolver) funcLiteral(fe *funcExpr) {
	fe.proto = &funcProto{
		params:   fe.params,
		isVararg: fe.isVararg,
		body:     fe.body,
		name:     fe.name,
		chunk:    r.chunk,
		line:     fe.line,
	}
	r.beginFunc(fe.proto)
	r.block(fe.body)
	r.endFunc()
}

// ---- expressions ----

// expr resolves e and returns its (possibly constant-folded) replacement.
func (r *resolver) expr(e expr) expr {
	switch ex := e.(type) {
	case *nilExpr, *boolExpr, *numberExpr, *stringExpr:
		return e
	case *nameExpr:
		ex.ref = r.resolveName(ex.name)
		return e
	case *parenExpr:
		ex.e = r.expr(ex.e)
		if isLiteral(ex.e) {
			return ex.e // a literal is already single-valued
		}
		return e
	case *indexExpr:
		ex.obj = r.expr(ex.obj)
		ex.key = r.expr(ex.key)
		return e
	case *callExpr:
		ex.fn = r.expr(ex.fn)
		r.exprList(ex.args)
		return e
	case *methodCallExpr:
		ex.obj = r.expr(ex.obj)
		r.exprList(ex.args)
		return e
	case *funcExpr:
		r.funcLiteral(ex)
		return e
	case *varargExpr:
		if !r.fs.proto.isVararg {
			r.errf(ex.line, "cannot use '...' outside a vararg function")
		}
		return e
	case *tableExpr:
		r.exprList(ex.arrayItems)
		r.exprList(ex.keys)
		r.exprList(ex.vals)
		return e
	case *unExpr:
		ex.e = r.expr(ex.e)
		return foldUnary(ex)
	case *binExpr:
		ex.lhs = r.expr(ex.lhs)
		ex.rhs = r.expr(ex.rhs)
		return foldBinary(ex)
	default:
		r.errf(e.nodeLine(), "unhandled expression in resolver")
		return e
	}
}

// ---- constant folding ----
//
// Folding reuses the runtime's own operators (arith, concatString, Equal,
// Truthy) so a folded expression is bit-identical to what evaluation would
// have produced. Expressions whose evaluation would raise a runtime error
// (e.g. "a"+1) are left alone so the error still carries its source line.

// literalValue extracts the Value of a literal expression.
func literalValue(e expr) (Value, bool) {
	switch ex := e.(type) {
	case *nilExpr:
		return Nil(), true
	case *boolExpr:
		return Bool(ex.val), true
	case *numberExpr:
		return Number(ex.val), true
	case *stringExpr:
		return String(ex.val), true
	}
	return Value{}, false
}

func isLiteral(e expr) bool {
	_, ok := literalValue(e)
	return ok
}

func foldUnary(ex *unExpr) expr {
	v, ok := literalValue(ex.e)
	if !ok {
		return ex
	}
	switch ex.op {
	case tokNot:
		return &boolExpr{base: base{ex.line}, val: !v.Truthy()}
	case tokMinus:
		if n, ok := v.AsNumber(); ok {
			return &numberExpr{base: base{ex.line}, val: -n}
		}
	case tokHash:
		if s, ok := v.AsString(); ok {
			return &numberExpr{base: base{ex.line}, val: float64(len(s))}
		}
	}
	return ex
}

func foldBinary(ex *binExpr) expr {
	lhs, lok := literalValue(ex.lhs)
	// and/or need only a literal lhs: the runtime picks a side without
	// evaluating both, and folding to the live side keeps any rhs errors.
	if lok && (ex.op == tokAnd || ex.op == tokOr) {
		if ex.op == tokAnd {
			if !lhs.Truthy() {
				return ex.lhs
			}
			return ex.rhs
		}
		if lhs.Truthy() {
			return ex.lhs
		}
		return ex.rhs
	}
	rhs, rok := literalValue(ex.rhs)
	if !lok || !rok {
		return ex
	}
	switch ex.op {
	case tokEq:
		return &boolExpr{base: base{ex.line}, val: lhs.Equal(rhs)}
	case tokNe:
		return &boolExpr{base: base{ex.line}, val: !lhs.Equal(rhs)}
	case tokConcat:
		ls, lsok := concatString(lhs)
		rs, rsok := concatString(rhs)
		if lsok && rsok {
			return &stringExpr{base: base{ex.line}, val: ls + rs}
		}
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		ln, lnok := lhs.AsNumber()
		rn, rnok := rhs.AsNumber()
		if lnok && rnok {
			// arith never raises: /0 and %0 produce Inf/NaN exactly as the
			// runtime would.
			return &numberExpr{base: base{ex.line}, val: arith(ex.op, ln, rn)}
		}
	case tokLt, tokLe, tokGt, tokGe:
		if res, ok := compareValues(lhs, rhs); ok {
			var out bool
			switch ex.op {
			case tokLt:
				out = res < 0
			case tokLe:
				out = res <= 0
			case tokGt:
				out = res > 0
			case tokGe:
				out = res >= 0
			}
			return &boolExpr{base: base{ex.line}, val: out}
		}
	}
	return ex
}
