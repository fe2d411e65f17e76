// Package scriptbind exposes the ORB and the trading service to
// AdaptScript code — the LuaCorba and LuaTrading bindings of the paper.
//
// LuaCorba's client side lets interpreted code invoke any CORBA object "in
// the same way it uses any Lua object: without declarations and with
// dynamic type checking" (§II). InstallORB provides that: shipped or local
// script code can call operations on any object reference, with arguments
// and results converted between script and wire values automatically.
//
// LuaTrading is "a Lua library that provides a simplified interface" to
// the trading service (§IV). InstallTrading provides query/export/withdraw
// /modify in script, returning offers as plain tables.
package scriptbind

import (
	"errors"
	"fmt"

	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// InstallORB adds the LuaCorba-style client API to an interpreter:
//
//	orb.invoke(ref, op, ...)   — two-way invocation, returns all results
//	orb.oneway(ref, op, ...)   — oneway invocation
//	orb.proxy(ref)             — returns an object table whose method calls
//	                             forward remotely: o:getValue(), o:hello(x)
//	orb.ref("tcp|h:p/key")     — parse an object reference from text
//
// The proxy form gives script code the paper's central ergonomic property:
// remote objects look exactly like local tables.
func InstallORB(in *script.Interp, client *orb.Client) {
	lib := script.NewTable()

	invoke := func(oneway bool) func(*script.Interp, []script.Value) ([]script.Value, error) {
		return func(in *script.Interp, args []script.Value) ([]script.Value, error) {
			if len(args) < 2 {
				return nil, errors.New("orb.invoke(ref, op, ...)")
			}
			ref, ok := args[0].AsRef()
			if !ok {
				return nil, fmt.Errorf("orb.invoke: first argument is %s, want objref", args[0].Kind())
			}
			op, ok := args[1].AsString()
			if !ok {
				return nil, errors.New("orb.invoke: operation name must be a string")
			}
			if !oneway {
				return Invoke(in, client, ref, op, args[2:])
			}
			wargs, err := toWireAll(args[2:])
			if err != nil {
				return nil, err
			}
			return nil, client.InvokeOneway(ref, op, wargs...)
		}
	}
	lib.SetString("invoke", script.Func("orb.invoke", invoke(false)))
	lib.SetString("oneway", script.Func("orb.oneway", invoke(true)))

	lib.SetString("ref", script.Func("orb.ref", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		s, ok := argAt(args, 0).AsString()
		if !ok {
			return nil, errors.New("orb.ref(text)")
		}
		r, err := wire.ParseObjRef(s)
		if err != nil {
			return nil, err
		}
		return []script.Value{script.Ref(r)}, nil
	}))

	lib.SetString("proxy", script.Func("orb.proxy", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		ref, ok := argAt(args, 0).AsRef()
		if !ok {
			return nil, errors.New("orb.proxy(ref)")
		}
		return []script.Value{ProxyTable(client, ref)}, nil
	}))

	in.SetGlobal("orb", script.TableVal(lib))
}

// ProxyTable builds the LuaCorba proxy object for ref: a table whose
// `_ref` field holds the reference and whose `call` method forwards any
// operation. Since AdaptScript has no metatables (by design — the sandbox
// stays simple), the generic form is
//
//	p:call("anyOperation", args...)
//
// and installing a Methods set for known operations on the table adds
// direct p:getValue(...) sugar.
func ProxyTable(client *orb.Client, ref wire.ObjRef) script.Value {
	m := NewMethods(client, "_ref")
	m.Set("call", func(in *script.Interp, ref wire.ObjRef, args []script.Value) ([]script.Value, error) {
		op, ok := argAt(args, 0).AsString()
		if !ok {
			return nil, errors.New("proxy:call: operation name must be a string")
		}
		return Invoke(in, client, ref, op, args[1:])
	})
	return m.Object(ref)
}

// Methods is a set of bound operations for remote-object tables: one
// script function per operation, shared by every table it is installed on.
// A method reads its target from the reference field of its receiver, the
// table it was called on with obj:op(...), and its context from the
// interpreter, so it captures neither.
type Methods struct {
	field string
	fns   map[string]script.Value
}

// NewMethods binds ops to forward over client to the reference in each
// receiver's field.
func NewMethods(client *orb.Client, field string, ops ...string) *Methods {
	m := &Methods{field: field, fns: make(map[string]script.Value, len(ops))}
	for _, op := range ops {
		m.Set(op, func(in *script.Interp, ref wire.ObjRef, args []script.Value) ([]script.Value, error) {
			return Invoke(in, client, ref, op, args)
		})
	}
	return m
}

// Set binds op to body, which gets the receiver's reference and the
// arguments after the receiver.
func (m *Methods) Set(op string, body func(in *script.Interp, ref wire.ObjRef, args []script.Value) ([]script.Value, error)) {
	m.fns[op] = script.Func("proxy."+op, func(in *script.Interp, args []script.Value) ([]script.Value, error) {
		if t, ok := argAt(args, 0).AsTable(); ok {
			if ref, ok := t.GetString(m.field).AsRef(); ok {
				return body(in, ref, args[1:])
			}
		}
		return nil, fmt.Errorf("%s: receiver has no %s reference; call it as obj:%s(...)", op, m.field, op)
	})
}

// Object returns a new table holding ref in the reference field and every
// bound operation.
func (m *Methods) Object(ref wire.ObjRef) script.Value {
	t := script.NewTable()
	t.SetString(m.field, script.Ref(ref))
	m.install(t)
	return script.TableVal(t)
}

func (m *Methods) install(t *script.Table) {
	for op, fn := range m.fns {
		t.SetString(op, fn)
	}
}

// Invoke calls op on ref with args converted to wire values, under the
// interpreter's context, and returns the results as script values.
func Invoke(in *script.Interp, client *orb.Client, ref wire.ObjRef, op string, args []script.Value) ([]script.Value, error) {
	wargs, err := toWireAll(args)
	if err != nil {
		return nil, err
	}
	rs, err := client.Invoke(in.Context(), ref, op, wargs...)
	if err != nil {
		return nil, err
	}
	return fromWireAll(rs), nil
}

// InstallTrading adds the LuaTrading API to an interpreter:
//
//	trader.query(type [, constraint [, preference [, max]]])
//	    → list of offer tables {id=, type=, ref=, properties={...}}
//	trader.export(type, ref, props)      → offer id
//	trader.withdraw(id)
//	trader.modify(id, props)
//
// Property tables may nest {dynamic=<objref>, aspect="..."} exactly like
// the wire form.
func InstallTrading(in *script.Interp, lookup trading.Directory) {
	lib := script.NewTable()

	lib.SetString("query", script.Func("trader.query", func(in *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 1 {
			return nil, errors.New("trader.query(type, ...)")
		}
		constraint, preference := "", ""
		maxResults := 0
		if len(args) > 1 {
			constraint = args[1].Str()
		}
		if len(args) > 2 {
			preference = args[2].Str()
		}
		if len(args) > 3 {
			maxResults = int(args[3].Num())
		}
		results, err := lookup.Query(in.Context(), args[0].Str(), constraint, preference, maxResults)
		if err != nil {
			return nil, err
		}
		out := script.NewTable()
		for _, r := range results {
			o := script.NewTable()
			o.SetString("id", script.String(r.Offer.ID))
			o.SetString("type", script.String(r.Offer.ServiceType))
			o.SetString("ref", script.Ref(r.Offer.Ref))
			props := script.NewTable()
			for name, v := range r.Snapshot {
				props.SetString(name, script.FromWire(v))
			}
			o.SetString("properties", script.TableVal(props))
			out.Append(script.TableVal(o))
		}
		return []script.Value{script.TableVal(out)}, nil
	}))

	lib.SetString("export", script.Func("trader.export", func(in *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("trader.export(type, ref [, props])")
		}
		ref, ok := args[1].AsRef()
		if !ok {
			return nil, errors.New("trader.export: second argument must be an objref")
		}
		props, err := propsFromScript(argAt(args, 2))
		if err != nil {
			return nil, err
		}
		id, err := lookup.Export(in.Context(), args[0].Str(), ref, props)
		if err != nil {
			return nil, err
		}
		return []script.Value{script.String(id)}, nil
	}))

	lib.SetString("withdraw", script.Func("trader.withdraw", func(in *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 1 {
			return nil, errors.New("trader.withdraw(id)")
		}
		return nil, lookup.Withdraw(in.Context(), args[0].Str())
	}))

	lib.SetString("modify", script.Func("trader.modify", func(in *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("trader.modify(id, props)")
		}
		props, err := propsFromScript(args[1])
		if err != nil {
			return nil, err
		}
		return nil, lookup.Modify(in.Context(), args[0].Str(), props)
	}))

	in.SetGlobal("trader", script.TableVal(lib))
}

func propsFromScript(v script.Value) (map[string]trading.PropValue, error) {
	if v.IsNil() {
		return nil, nil
	}
	t, ok := v.AsTable()
	if !ok {
		return nil, fmt.Errorf("scriptbind: properties must be a table, got %s", v.Kind())
	}
	out := map[string]trading.PropValue{}
	var convErr error
	t.Pairs(func(k, val script.Value) bool {
		name, ok := k.AsString()
		if !ok {
			convErr = errors.New("scriptbind: property names must be strings")
			return false
		}
		if inner, ok := val.AsTable(); ok {
			if dyn, isRef := inner.GetString("dynamic").AsRef(); isRef {
				out[name] = trading.PropValue{Dynamic: dyn, Aspect: inner.GetString("aspect").Str()}
				return true
			}
		}
		wv, err := val.ToWire()
		if err != nil {
			convErr = err
			return false
		}
		out[name] = trading.PropValue{Static: wv}
		return true
	})
	if convErr != nil {
		return nil, convErr
	}
	return out, nil
}

func toWireAll(vs []script.Value) ([]wire.Value, error) {
	out := make([]wire.Value, len(vs))
	for i, v := range vs {
		wv, err := v.ToWire()
		if err != nil {
			return nil, err
		}
		out[i] = wv
	}
	return out, nil
}

func fromWireAll(vs []wire.Value) []script.Value {
	out := make([]script.Value, len(vs))
	for i, v := range vs {
		out[i] = script.FromWire(v)
	}
	return out
}

func argAt(args []script.Value, i int) script.Value {
	if i < len(args) {
		return args[i]
	}
	return script.Nil()
}
