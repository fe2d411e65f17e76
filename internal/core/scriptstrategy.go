package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"autoadapt/internal/script"
	"autoadapt/internal/scriptbind"
	"autoadapt/internal/strikes"
	"autoadapt/internal/wire"
)

// Script strategy support: the paper specifies adaptation strategies in an
// interpreted language (Fig. 7), stored in a `_strategies` table indexed by
// event name. This file builds the script-visible `self` object those
// strategies receive and installs compiled script functions as Strategy
// values.
//
// self is the proxy's own object, one table per proxy, so whatever a
// strategy stores on it (Fig. 7's self._loadavg) is there at the next
// event. It exposes, matching Fig. 7's usage:
//
//	self:_select(query)  — re-query the trader and switch server;
//	                       returns true when a server was found
//	self._observer       — stands for the proxy as an observer
//	self._server         — the main route's server reference
//	self._constraint     — the constraint of the route an EventFailed or
//	                       EventNoMatch activation repairs; nil otherwise
//	self._loadavgmon     — monitor object for the watched property: each
//	                       monitored property P is bound as
//	                       _<lowercased P>mon and _monitor_<P>
//
// _observer and _select are written back at every activation; _server and
// the monitor objects follow the binding, even a switch _select makes.
//
// A monitor object holds the monitor's reference as `ref` and the methods
// getValue(), getAspectValue(name), getAspectValues(name, ...) — one round
// trip, one sample, one result per name — attachEventObserver(observer,
// event, code) and detachEventObserver(id), all forwarded over the ORB.
// The methods are shared by the proxy's monitor objects and read the
// reference from their receiver: call them as mon:getValue().
// attachEventObserver(self._observer, event, code) is Fig. 7's re-arm: the
// proxy re-subscribes event with the new code on that monitor, replacing
// its earlier subscription there.

// selfObserver is self._observer. Its endpoint has no "network|address"
// form, so no real object reference equals it.
var selfObserver = wire.ObjRef{Endpoint: "self", Key: "observer"}

// SetScriptStrategy compiles src — AdaptScript source evaluating to a
// function(self) — and installs it as the strategy for event. This is the
// paper's `strategies` table entry: dynamically replaceable at run time.
//
// Compilation happens exactly once, here at install time, through the
// interpreter's chunk cache; per-event activations Call the cached closure
// with zero parse work, and reinstalling the same source (e.g. the same
// strategy pushed to every proxy in a fleet sharing a cache) is a cache hit.
func (sp *SmartProxy) SetScriptStrategy(event, src string) error {
	sp.scriptMu.Lock()
	fn, err := sp.in.CompileFunction("strategy:"+event, src)
	sp.scriptMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: compile strategy %q: %w", event, err)
	}

	sp.installScriptStrategy(event, fn)
	return nil
}

// installScriptStrategy wraps a compiled strategy closure as a Strategy. The
// activation runs under the caller's context (cancellation propagates into
// the interpreter) and under the proxy's script budgets. strikes.Limit
// consecutive budget-exhaustion aborts quarantine the strategy: it is
// uninstalled and the event falls back to "no strategy". Only budget errors
// count: an ordinary script error (nil offer, remote failure) is the
// strategy working as written, not hostile code. The strikes belong to
// this installation, so code installed anew for the event starts clean.
func (sp *SmartProxy) installScriptStrategy(event string, fn script.Value) {
	var fails strikes.Count // guarded by adaptMu, which every activation holds
	sp.SetStrategy(event, func(ctx context.Context, p *SmartProxy) error {
		p.scriptMu.Lock()
		self := p.scriptSelf()
		rp, _ := ctx.Value(repairKey{}).(*repair)
		if rp != nil {
			p.self.tbl.SetString("_constraint", script.String(rp.route.constraint))
		}
		_, err := p.in.CallCtx(ctx, fn, []script.Value{self})
		if rp != nil {
			p.self.tbl.SetString("_constraint", script.Nil())
		}
		p.scriptMu.Unlock()
		if !script.IsBudgetError(err) {
			fails.Reset()
		} else if fails.Fail() {
			p.mu.Lock()
			delete(p.strategies, event)
			p.stats.QuarantinedStrategies++
			p.mu.Unlock()
			p.logf("core: strategy %q quarantined after %d consecutive budget aborts (last: %v)",
				event, strikes.Limit, err)
		}
		return err
	})
}

// SetScriptStrategiesTable evaluates src, which must yield a table mapping
// event names to functions — the paper's Fig. 7 form:
//
//	{ LoadIncrease = function(self) ... end }
//
// Every entry is installed as a strategy.
func (sp *SmartProxy) SetScriptStrategiesTable(src string) error {
	// EvalExpr routes through the chunk cache: re-pushing the same table
	// source re-runs the cached chunk without touching the parser.
	sp.scriptMu.Lock()
	v, err := sp.in.EvalExpr("strategies", src)
	sp.scriptMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: compile strategies table: %w", err)
	}
	tbl, ok := v.AsTable()
	if !ok {
		return fmt.Errorf("core: strategies source yielded %s, want table", v.Kind())
	}
	var installErr error
	tbl.Pairs(func(k, v script.Value) bool {
		event, isStr := k.AsString()
		if !isStr || !v.IsFunction() {
			installErr = fmt.Errorf("core: strategies table entries must map event names to functions")
			return false
		}
		sp.installScriptStrategy(event, v)
		return true
	})
	return installErr
}

// scriptSelf is the proxy's one script-visible self table and the binding
// its monitor fields were last built from. Guarded by scriptMu.
type scriptSelf struct {
	tbl      *script.Table
	observer script.Value // self._observer
	sel      script.Value // self._select
	mons     *scriptbind.Methods
	gen      uint64               // sp.gen the binding fields reflect
	monKeys  []string             // the binding's _<prop>mon and _monitor_<prop> keys
	keyCache map[string][2]string // a property's two monitor keys
}

// scriptSelf returns the `self` table passed to script strategies, made on
// the first activation. It is the proxy's own object, so whatever a
// strategy stores on it stays; the reserved fields are written back on
// every activation, and the binding fields follow the current selection.
func (sp *SmartProxy) scriptSelf() script.Value {
	s := &sp.self
	if s.tbl == nil {
		s.tbl = script.NewTable()
		s.observer = script.Ref(selfObserver)
		s.sel = script.Func("_select", sp.scriptSelect)
		s.mons = scriptbind.NewMethods(sp.opts.Client, "ref",
			"getValue", "getAspectValue", "getAspectValues", "attachEventObserver", "detachEventObserver")
		s.mons.Set("attachEventObserver", sp.scriptAttach)
		s.keyCache = make(map[string][2]string)
		s.gen = ^uint64(0) // reflects no binding yet
	}
	s.tbl.SetString("_observer", s.observer)
	s.tbl.SetString("_select", s.sel)
	sp.refreshSelf()
	return script.TableVal(s.tbl)
}

// scriptSelect is self:_select(query) — Fig. 7 line 9. After a switch it
// refreshes self's binding fields, so the strategy sees the new server
// before it returns.
func (sp *SmartProxy) scriptSelect(in *script.Interp, args []script.Value) ([]script.Value, error) {
	query := ""
	if len(args) > 1 {
		query = args[1].Str()
	}
	// Runs without sp.mu: Select takes its own locks. The strategy runs
	// under adaptMu, so concurrent adaptations cannot interleave.
	ok, err := sp.Select(in.Context(), query)
	if ok && err == nil {
		sp.refreshSelf()
	}
	return []script.Value{script.Bool(ok && err == nil)}, nil
}

// scriptAttach is a monitor object's attachEventObserver.
// attachEventObserver(self._observer, event, code) is Fig. 7's re-arm; any
// other observer is attached on the monitor itself.
func (sp *SmartProxy) scriptAttach(in *script.Interp, mon wire.ObjRef, args []script.Value) ([]script.Value, error) {
	if len(args) >= 3 {
		if obs, _ := args[0].AsRef(); obs == selfObserver {
			return nil, sp.rearm(in.Context(), mon, args[1].Str(), args[2].Str())
		}
	}
	return scriptbind.Invoke(in, sp.opts.Client, mon, "attachEventObserver", args)
}

// refreshSelf rebuilds self's binding fields when the binding has changed
// since they were built: _server, and the watched properties' monitor
// objects as _<lowercased-prop>mon (Fig. 7's _loadavgmon) and
// _monitor_<prop>. Properties served by one monitor (Fig. 6: LoadAvg and
// LoadAvgIncreasing) share one monitor object.
func (sp *SmartProxy) refreshSelf() {
	s := &sp.self
	sp.mu.Lock()
	gen, bound, res := sp.gen, sp.main.proxy != nil, sp.main.result
	sp.mu.Unlock()
	if gen == s.gen {
		return
	}
	s.gen = gen
	for _, k := range s.monKeys {
		s.tbl.SetString(k, script.Nil())
	}
	s.monKeys = s.monKeys[:0]
	if !bound {
		s.tbl.SetString("_server", script.Nil())
		return
	}
	type builtMon struct {
		ref wire.ObjRef
		obj script.Value
	}
	built := make([]builtMon, 0, 4)
	for prop := range res.Offer.Props {
		ref, ok := res.Offer.MonitorFor(prop)
		if !ok {
			continue
		}
		i := slices.IndexFunc(built, func(b builtMon) bool { return b.ref == ref })
		if i < 0 {
			i = len(built)
			built = append(built, builtMon{ref, s.mons.Object(ref)})
		}
		keys, ok := s.keyCache[prop] // derived once per name
		if !ok {
			keys = [2]string{"_" + strings.ToLower(prop) + "mon", "_monitor_" + prop}
			s.keyCache[prop] = keys
		}
		s.tbl.SetString(keys[0], built[i].obj)
		s.tbl.SetString(keys[1], built[i].obj)
		s.monKeys = append(s.monKeys, keys[0], keys[1])
	}
	s.tbl.SetString("_server", script.Ref(res.Offer.Ref))
}
