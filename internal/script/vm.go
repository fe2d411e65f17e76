package script

import (
	"fmt"
	"sync"
)

// Register VM executing the bytecode produced by compile.go. The dispatch
// loop is a single switch inside a pc loop; Go compiles it to a jump table.
//
// The VM is the only executor. Semantics contract: it is observationally
// identical to the tree-walking reference interpreter kept in
// reference_test.go — same values, same error strings with the same source
// positions, same step/wall/memory budget charges at the same program
// points, same evaluation order and side-effect order. TestDifferentialCorpus
// runs the full golden corpus on both and FuzzVMDiff cross-checks arbitrary
// chunks, so any divergence is a bug here or in compile.go. The one
// documented difference is ErrTooLarge: the reference has no resource limits.
//
// Budget placement mirrors the reference exactly: opStep at statement
// entries and loop heads increments the shared step counter, checks the
// step budget, and every budgetCheckInterval steps consults the
// context/wall-clock deadline (the amortized 1/1024 interrupt poll).
// Memory charges sit on the same operations with the same model costs:
// table creation, entry stores, concats, and call frames.

type opcode uint8

const (
	opStep opcode = iota // line: statement/iteration budget charge

	opMove     // regs[a] = regs[b]
	opLoadK    // regs[a] = rk(b)
	opLoadNil  // regs[a..a+b-1] = nil
	opLoadBool // regs[a] = (b != 0)

	opGetGlobal // regs[a] = globals[names[b]]
	opSetGlobal // globals[names[a]] = rk(b)
	opGetBox    // regs[a] = *boxes[b]
	opSetBox    // *boxes[a] = rk(b)
	opNewBox    // boxes[a] = new cell initialized to rk(b)
	opGetUpval  // regs[a] = *upvals[b]
	opSetUpval  // *upvals[a] = rk(b)
	opClosure   // regs[a] = closure over protos[b]

	opAdd    // regs[a] = rk(b) + rk(c)
	opSub    // regs[a] = rk(b) - rk(c)
	opMul    // regs[a] = rk(b) * rk(c)
	opDiv    // regs[a] = rk(b) / rk(c)
	opMod    // regs[a] = rk(b) % rk(c) (Lua floor modulo)
	opPow    // regs[a] = rk(b) ^ rk(c)
	opUnm    // regs[a] = -rk(b)
	opNot    // regs[a] = not rk(b)
	opLen    // regs[a] = #rk(b)
	opConcat // regs[a] = rk(b) .. rk(c), charges result length
	opEq     // regs[a] = rk(b) == rk(c)
	opNe     // regs[a] = rk(b) ~= rk(c)
	opLt     // regs[a] = rk(b) < rk(c)
	opLe     // regs[a] = rk(b) <= rk(c)
	opGt     // regs[a] = rk(b) > rk(c)
	opGe     // regs[a] = rk(b) >= rk(c)

	opGetIndex      // regs[a] = regs[b][rk(c)]
	opCheckTable    // error unless regs[a] is a table (assignment target)
	opSetIndex      // regs[a][rk(b)] = rk(c), charges memEntryCost
	opNewTable      // regs[a] = {}, charges memTableCost + b*memEntryCost upfront
	opAppend        // regs[a]:append(rk(b)), no charge (prepaid by opNewTable)
	opAppendScratch // pop mark; charge and append scratch values to regs[a]
	opTabSet        // regs[a][rk(b)] = rk(c) in a constructor, no charge

	opJmp      // pc = a
	opJmpIf    // if regs[a] truthy then pc = b
	opJmpIfNot // if regs[a] falsy then pc = b

	opMark        // push len(scratch) onto the mark stack
	opPush        // push rk(a) onto scratch
	opPushVarargs // push frame varargs onto scratch
	opVarargN     // regs[a..a+b-1] = varargs, nil-padded

	opGetMethod // regs[a] = method names[c] of regs[b]

	opCall           // call regs[a](regs[a+1..a+b]); c results (see want*)
	opCallScratch    // call regs[a](scratch args above mark); results per c at regs[b..]
	opCallRet        // tail call regs[a](regs[a+1..a+b]); results to output, return
	opCallScratchRet // tail call regs[a](scratch args); results to output, return

	opCheckNum   // regs[a] must be a number (for-loop header, b names which)
	opForPrep    // numeric-for init test; jump b when the loop runs zero times
	opForLoop    // i += step; loop back to b while in range
	opGenForCall // generic-for iteration: call regs[a] (b defs, exit jump c)

	opReturn        // append regs[a..a+b-1] to output, return
	opReturnScratch // pop mark; append scratch values to output, return
	opReturnVarargs // append varargs to output, return
	opReturnNone    // return with no values
)

// instr is one VM instruction. Operands b/c are RK-encoded where noted:
// values >= rkConst index the constants table, lower values registers.
type instr struct {
	op      opcode
	a, b, c int32
	line    int32
}

// vmCode is a compiled funcProto: flat code, constants, global-name and
// nested-proto tables, and the frame's register count — or, for a proto
// over a VM limit, only err, the ErrTooLarge every call returns.
type vmCode struct {
	err     error
	chunk   string
	ins     []instr
	consts  []Value
	names   []string
	protos  []*funcProto
	numRegs int
}

// vmFrame is one VM activation: the register file, upvalue boxes created by
// this frame, the vararg tail, and a scratch value stack used for calls and
// returns whose value counts are only known at run time.
type vmFrame struct {
	regs    []Value
	boxes   []*Value
	varargs []Value
	scratch []Value
	marks   []int
}

var vmFramePool = sync.Pool{New: func() any { return &vmFrame{} }}

// putVMFrame recycles a frame, clearing value references so pooled frames
// do not pin tables or closures against the GC.
func putVMFrame(f *vmFrame) {
	r := f.regs[:cap(f.regs)]
	clear(r)
	f.regs = r[:0]
	b := f.boxes[:cap(f.boxes)]
	clear(b)
	f.boxes = b[:0]
	s := f.scratch[:cap(f.scratch)]
	clear(s)
	f.scratch = s[:0]
	f.marks = f.marks[:0]
	f.varargs = nil
	vmFramePool.Put(f)
}

func vmRK(regs, consts []Value, x int32) Value {
	if x >= rkConst {
		return consts[x-rkConst]
	}
	return regs[x]
}

// callVM executes cl, appending results to *out. The caller owns *out;
// script→script calls pass the caller frame's scratch stack so no per-call
// result slice is allocated.
func (in *Interp) callVM(cl *Closure, args []Value, depth int, out *[]Value) error {
	p := cl.proto
	code := protoCode(p)
	if code.err != nil {
		return code.err
	}
	// Frame storage is charged with the resolver's model numbers
	// (slots+boxes, not the VM's register count), as the reference
	// interpreter charges it, so memory-budget trips match it bit for bit.
	if in.memBudget > 0 {
		if err := in.chargeMem(p.numSlots*memValueCost + p.numBoxes*(memValueCost+8)); err != nil {
			return err
		}
	}
	fr := vmFramePool.Get().(*vmFrame)
	if cap(fr.regs) >= code.numRegs {
		fr.regs = fr.regs[:code.numRegs]
	} else {
		fr.regs = make([]Value, code.numRegs)
	}
	if cap(fr.boxes) >= p.numBoxes {
		fr.boxes = fr.boxes[:p.numBoxes]
	} else {
		fr.boxes = make([]*Value, p.numBoxes)
	}
	for i, li := range p.paramInfos {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		if li.boxed {
			b := new(Value)
			*b = v
			fr.boxes[li.index] = b
		} else {
			fr.regs[li.index] = v
		}
	}
	if p.isVararg && len(args) > len(p.paramInfos) {
		fr.varargs = args[len(p.paramInfos):]
	}
	err := in.runVM(fr, cl, code, depth, out)
	putVMFrame(fr)
	return err
}

// vmDoCall invokes fn with args and routes its results:
//
//	want >= 0     copy into regs[dst:dst+want], nil-padded
//	wantScratch   append to the frame's scratch stack
//	wantRet       append to *out (tail return)
//
// Script callees receive args as-is — a borrowed register window or scratch
// segment; they copy params into their own frame before the caller resumes.
// GoFunc callees get a leaked pooled copy because builtins such as assert()
// retain their argument slice.
func (in *Interp) vmDoCall(fr *vmFrame, fn Value, args []Value, regs []Value, dst, want, depth int, out *[]Value) ([]Value, error) {
	if depth+1 > maxCallDepth {
		return nil, &RuntimeError{Msg: "call stack overflow"}
	}
	switch {
	case fn.cl != nil:
		if want == wantRet {
			return nil, in.callVM(fn.cl, args, depth+1, out)
		}
		m := len(fr.scratch)
		if err := in.callVM(fn.cl, args, depth+1, &fr.scratch); err != nil {
			fr.scratch = fr.scratch[:m]
			return nil, err
		}
		if want == wantScratch {
			return nil, nil
		}
		rets := fr.scratch[m:]
		for k := 0; k < want; k++ {
			if k < len(rets) {
				regs[dst+k] = rets[k]
			} else {
				regs[dst+k] = Value{}
			}
		}
		fr.scratch = fr.scratch[:m]
		return nil, nil
	case fn.gf != nil:
		// A builtin may keep its argument slice (assert returns it), so it
		// gets a copy of its own rather than a window on the registers.
		var gargs []Value
		if len(args) > 0 {
			gargs = make([]Value, len(args))
			copy(gargs, args)
		}
		rets, err := fn.gf.Fn(in, gargs)
		if err != nil {
			return nil, err
		}
		switch want {
		case wantRet:
			*out = append(*out, rets...)
		case wantScratch:
			fr.scratch = append(fr.scratch, rets...)
		default:
			for k := 0; k < want; k++ {
				if k < len(rets) {
					regs[dst+k] = rets[k]
				} else {
					regs[dst+k] = Value{}
				}
			}
		}
		return rets, nil
	default:
		return nil, fmt.Errorf("%w (got %s)", ErrNotCallable, fn.Kind())
	}
}

func (in *Interp) runVM(fr *vmFrame, cl *Closure, code *vmCode, depth int, out *[]Value) error {
	regs := fr.regs
	consts := code.consts
	ins := code.ins
	chunk := code.chunk
	pc := 0
	for {
		i := &ins[pc]
		pc++
		switch i.op {
		case opStep:
			in.steps++
			if in.budget >= 0 && in.steps > in.budget {
				return fmt.Errorf("%s:%d: %w", chunk, i.line, ErrStepBudget)
			}
			if in.interruptible && in.steps&(budgetCheckInterval-1) == 0 {
				if err := in.checkInterrupt(chunk, int(i.line)); err != nil {
					return err
				}
			}

		case opMove:
			regs[i.a] = regs[i.b]
		case opLoadK:
			regs[i.a] = vmRK(regs, consts, i.b)
		case opLoadNil:
			for k := int32(0); k < i.b; k++ {
				regs[i.a+k] = Value{}
			}
		case opLoadBool:
			regs[i.a] = Bool(i.b != 0)

		case opGetGlobal:
			regs[i.a] = in.globals.GetString(code.names[i.b])
		case opSetGlobal:
			in.globals.SetString(code.names[i.a], vmRK(regs, consts, i.b))
		case opGetBox:
			regs[i.a] = *fr.boxes[i.b]
		case opSetBox:
			*fr.boxes[i.a] = vmRK(regs, consts, i.b)
		case opNewBox:
			b := new(Value)
			*b = vmRK(regs, consts, i.b)
			fr.boxes[i.a] = b
		case opGetUpval:
			regs[i.a] = *cl.upvals[i.b]
		case opSetUpval:
			*cl.upvals[i.a] = vmRK(regs, consts, i.b)
		case opClosure:
			p := code.protos[i.b]
			if len(p.upvals) == 0 {
				regs[i.a] = closureVal(&Closure{proto: p})
			} else {
				ups := make([]*Value, len(p.upvals))
				for k, ud := range p.upvals {
					if ud.fromParent {
						ups[k] = fr.boxes[ud.li.index]
					} else {
						ups[k] = cl.upvals[ud.idx]
					}
				}
				regs[i.a] = closureVal(&Closure{proto: p, upvals: ups})
			}

		case opAdd:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(x.n + y.n)
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opSub:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(x.n - y.n)
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opMul:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(x.n * y.n)
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opDiv:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(x.n / y.n)
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opMod:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(x.n - floorDiv(x.n, y.n)*y.n)
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opPow:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			if x.kind == KindNumber && y.kind == KindNumber {
				regs[i.a] = Number(pow(x.n, y.n))
			} else {
				return arithErr(chunk, int(i.line), x, y)
			}
		case opUnm:
			x := vmRK(regs, consts, i.b)
			if x.kind != KindNumber {
				return rtErr(chunk, int(i.line), "attempt to negate a %s value", x.Kind())
			}
			regs[i.a] = Number(-x.n)
		case opNot:
			regs[i.a] = Bool(!vmRK(regs, consts, i.b).Truthy())
		case opLen:
			x := vmRK(regs, consts, i.b)
			switch x.Kind() {
			case KindString:
				regs[i.a] = Int(len(x.s))
			case KindTable:
				regs[i.a] = Int(x.t.Len())
			default:
				return rtErr(chunk, int(i.line), "attempt to get length of a %s value", x.Kind())
			}
		case opConcat:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			ls, lok := concatString(x)
			rs, rok := concatString(y)
			if !lok || !rok {
				return rtErr(chunk, int(i.line), "attempt to concatenate a %s value", pickBadKind(x, y, lok))
			}
			if err := in.chargeMemAt(chunk, int(i.line), len(ls)+len(rs)); err != nil {
				return err
			}
			regs[i.a] = String(ls + rs)
		case opEq:
			regs[i.a] = Bool(vmRK(regs, consts, i.b).Equal(vmRK(regs, consts, i.c)))
		case opNe:
			regs[i.a] = Bool(!vmRK(regs, consts, i.b).Equal(vmRK(regs, consts, i.c)))
		case opLt:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			res, ok := compareValues(x, y)
			if !ok {
				return rtErr(chunk, int(i.line), "attempt to compare %s with %s", x.Kind(), y.Kind())
			}
			regs[i.a] = Bool(res < 0)
		case opLe:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			res, ok := compareValues(x, y)
			if !ok {
				return rtErr(chunk, int(i.line), "attempt to compare %s with %s", x.Kind(), y.Kind())
			}
			regs[i.a] = Bool(res <= 0)
		case opGt:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			res, ok := compareValues(x, y)
			if !ok {
				return rtErr(chunk, int(i.line), "attempt to compare %s with %s", x.Kind(), y.Kind())
			}
			regs[i.a] = Bool(res > 0)
		case opGe:
			x, y := vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)
			res, ok := compareValues(x, y)
			if !ok {
				return rtErr(chunk, int(i.line), "attempt to compare %s with %s", x.Kind(), y.Kind())
			}
			regs[i.a] = Bool(res >= 0)

		case opGetIndex:
			obj := regs[i.b]
			key := vmRK(regs, consts, i.c)
			switch obj.Kind() {
			case KindTable:
				regs[i.a] = obj.t.Get(key)
			case KindString:
				lib, ok := in.globals.GetString("string").AsTable()
				if !ok {
					return rtErr(chunk, int(i.line), "attempt to index a string value")
				}
				regs[i.a] = lib.Get(key)
			default:
				return rtErr(chunk, int(i.line), "attempt to index a %s value (key %s)", obj.Kind(), key.ToString())
			}
		case opCheckTable:
			if obj := regs[i.a]; obj.kind != KindTable {
				return rtErr(chunk, int(i.line), "attempt to index a %s value", obj.Kind())
			}
		case opSetIndex:
			if err := in.chargeMemAt(chunk, int(i.line), memEntryCost); err != nil {
				return err
			}
			if err := regs[i.a].t.Set(vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)); err != nil {
				return rtErr(chunk, int(i.line), "%v", err)
			}
		case opNewTable:
			if err := in.chargeMemAt(chunk, int(i.line), memTableCost+int(i.b)*memEntryCost); err != nil {
				return err
			}
			regs[i.a] = TableVal(NewTable())
		case opAppend:
			regs[i.a].t.Append(vmRK(regs, consts, i.b))
		case opAppendScratch:
			m := fr.marks[len(fr.marks)-1]
			fr.marks = fr.marks[:len(fr.marks)-1]
			vs := fr.scratch[m:]
			if err := in.chargeMemAt(chunk, int(i.line), len(vs)*memEntryCost); err != nil {
				fr.scratch = fr.scratch[:m]
				return err
			}
			t := regs[i.a].t
			for _, v := range vs {
				t.Append(v)
			}
			fr.scratch = fr.scratch[:m]
		case opTabSet:
			if err := regs[i.a].t.Set(vmRK(regs, consts, i.b), vmRK(regs, consts, i.c)); err != nil {
				return rtErr(chunk, int(i.line), "%v", err)
			}

		case opJmp:
			pc = int(i.a)
		case opJmpIf:
			if regs[i.a].Truthy() {
				pc = int(i.b)
			}
		case opJmpIfNot:
			if !regs[i.a].Truthy() {
				pc = int(i.b)
			}

		case opMark:
			fr.marks = append(fr.marks, len(fr.scratch))
		case opPush:
			fr.scratch = append(fr.scratch, vmRK(regs, consts, i.a))
		case opPushVarargs:
			fr.scratch = append(fr.scratch, fr.varargs...)
		case opVarargN:
			for k := int32(0); k < i.b; k++ {
				if int(k) < len(fr.varargs) {
					regs[i.a+k] = fr.varargs[k]
				} else {
					regs[i.a+k] = Value{}
				}
			}

		case opGetMethod:
			obj := regs[i.b]
			name := code.names[i.c]
			var fn Value
			switch obj.Kind() {
			case KindTable:
				fn = obj.t.GetString(name)
			case KindString:
				if lib, ok := in.globals.GetString("string").AsTable(); ok {
					fn = lib.GetString(name)
				}
			}
			if fn.IsNil() {
				return rtErr(chunk, int(i.line), "attempt to call method %q on a %s value", name, obj.Kind())
			}
			regs[i.a] = fn

		case opCall:
			base := int(i.a)
			if _, err := in.vmDoCall(fr, regs[base], regs[base+1:base+1+int(i.b)], regs, base, int(i.c), depth, out); err != nil {
				return wrapCallErr(chunk, int(i.line), err)
			}
		case opCallScratch:
			m := fr.marks[len(fr.marks)-1]
			fr.marks = fr.marks[:len(fr.marks)-1]
			nargs := len(fr.scratch) - m
			_, err := in.vmDoCall(fr, regs[i.a], fr.scratch[m:], regs, int(i.b), int(i.c), depth, out)
			if err != nil {
				fr.scratch = fr.scratch[:m]
				return wrapCallErr(chunk, int(i.line), err)
			}
			if int(i.c) == wantScratch {
				// Compact the results down over the consumed arguments.
				n := copy(fr.scratch[m:], fr.scratch[m+nargs:])
				fr.scratch = fr.scratch[:m+n]
			} else {
				fr.scratch = fr.scratch[:m]
			}
		case opCallRet:
			base := int(i.a)
			if _, err := in.vmDoCall(fr, regs[base], regs[base+1:base+1+int(i.b)], regs, base, wantRet, depth, out); err != nil {
				return wrapCallErr(chunk, int(i.line), err)
			}
			return nil
		case opCallScratchRet:
			m := fr.marks[len(fr.marks)-1]
			fr.marks = fr.marks[:len(fr.marks)-1]
			_, err := in.vmDoCall(fr, regs[i.a], fr.scratch[m:], regs, 0, wantRet, depth, out)
			if err != nil {
				fr.scratch = fr.scratch[:m]
				return wrapCallErr(chunk, int(i.line), err)
			}
			return nil

		case opCheckNum:
			v := regs[i.a]
			n, ok := v.AsNumber()
			if !ok {
				return rtErr(chunk, int(i.line), "%s must be a number (got %s)", forWhat[i.b], v.Kind())
			}
			regs[i.a] = Number(n)
		case opForPrep:
			base := i.a
			step := regs[base+2].n
			if step == 0 {
				return rtErr(chunk, int(i.line), "'for' step is zero")
			}
			iv, limit := regs[base].n, regs[base+1].n
			if !((step > 0 && iv <= limit) || (step < 0 && iv >= limit)) {
				pc = int(i.b)
			}
		case opForLoop:
			base := i.a
			step := regs[base+2].n
			iv := regs[base].n + step
			regs[base] = Number(iv)
			if (step > 0 && iv <= regs[base+1].n) || (step < 0 && iv >= regs[base+1].n) {
				pc = int(i.b)
			}
		case opGenForCall:
			base := int(i.a)
			if depth+1 > maxCallDepth {
				return &RuntimeError{Msg: "call stack overflow"}
			}
			iter := regs[base]
			var rets []Value
			m := -1
			switch {
			case iter.cl != nil:
				// Script iterators borrow a scratch segment for the
				// (state, control) pair — zero allocation per iteration.
				m = len(fr.scratch)
				fr.scratch = append(fr.scratch, regs[base+1], regs[base+2])
				if err := in.callVM(iter.cl, fr.scratch[m:m+2], depth+1, &fr.scratch); err != nil {
					fr.scratch = fr.scratch[:m]
					return err // iterator errors propagate unwrapped
				}
				rets = fr.scratch[m+2:]
			case iter.gf != nil:
				// Host iterators may retain their argument slice: fresh pair.
				var err error
				rets, err = iter.gf.Fn(in, []Value{regs[base+1], regs[base+2]})
				if err != nil {
					return err
				}
			default:
				return fmt.Errorf("%w (got %s)", ErrNotCallable, iter.Kind())
			}
			var first Value
			if len(rets) > 0 {
				first = rets[0]
			}
			if first.IsNil() {
				if m >= 0 {
					fr.scratch = fr.scratch[:m]
				}
				pc = int(i.c)
				break
			}
			regs[base+2] = first
			for k := 0; k < int(i.b); k++ {
				var v Value
				if k < len(rets) {
					v = rets[k]
				}
				regs[base+3+k] = v
			}
			if m >= 0 {
				fr.scratch = fr.scratch[:m]
			}

		case opReturn:
			*out = append(*out, regs[i.a:i.a+i.b]...)
			return nil
		case opReturnScratch:
			m := fr.marks[len(fr.marks)-1]
			fr.marks = fr.marks[:len(fr.marks)-1]
			*out = append(*out, fr.scratch[m:]...)
			fr.scratch = fr.scratch[:m]
			return nil
		case opReturnVarargs:
			*out = append(*out, fr.varargs...)
			return nil
		case opReturnNone:
			return nil

		default:
			return rtErr(chunk, int(i.line), "unhandled opcode %d", i.op)
		}
	}
}
