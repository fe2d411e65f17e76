package core

import (
	"context"
	"fmt"
	"slices"

	"autoadapt/internal/script"
	"autoadapt/internal/wire"
)

// Script strategy support: the paper specifies adaptation strategies in an
// interpreted language (Fig. 7), stored in a `_strategies` table indexed by
// event name. This file builds the script-visible `self` object those
// strategies receive and installs compiled script functions as Strategy
// values.
//
// The self object exposes, matching Fig. 7's usage:
//
//	self:_select(query)            — re-query the trader and switch server;
//	                                 returns true when a server was found
//	self._observer                 — the proxy's EventObserver reference
//	self._loadavgmon               — monitor object for the watched property
//	                                 (generalised: self:monitor(prop))
//	self._loadavg                  — set by the strategy itself (Fig. 7 line 4)
//
// Monitor objects support getValue(), getAspectValue(name),
// getAspectValues(name, ...) — one round trip, one sample, one result per
// name — and attachEventObserver(observer, event, code), all forwarded over
// the ORB.

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
// the interpreter) and under the proxy's script budgets; consecutive
// budget-exhaustion aborts quarantine the strategy (noteStrategyOutcome).
func (sp *SmartProxy) installScriptStrategy(event string, fn script.Value) {
	sp.SetStrategy(event, func(ctx context.Context, p *SmartProxy) error {
		self := p.buildScriptSelf(ctx)
		p.scriptMu.Lock()
		_, err := p.in.CallCtx(ctx, fn, []script.Value{self})
		p.scriptMu.Unlock()
		p.noteStrategyOutcome(event, err)
		return err
	})
}

// maxStrategyFailures resolves Options.MaxStrategyFailures: 0 means
// DefaultMaxStrategyFailures, negative disables quarantine.
func (sp *SmartProxy) maxStrategyFailures() int {
	switch {
	case sp.opts.MaxStrategyFailures > 0:
		return sp.opts.MaxStrategyFailures
	case sp.opts.MaxStrategyFailures < 0:
		return 0
	default:
		return DefaultMaxStrategyFailures
	}
}

// noteStrategyOutcome tracks consecutive budget-exhaustion aborts of a
// script strategy and uninstalls it at the quarantine threshold. Only
// budget errors count: an ordinary script error (nil offer, remote failure)
// is the strategy working as written, not hostile code.
func (sp *SmartProxy) noteStrategyOutcome(event string, err error) {
	limit := sp.maxStrategyFailures()
	if limit == 0 {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err == nil || !script.IsBudgetError(err) {
		delete(sp.strategyFails, event)
		return
	}
	sp.strategyFails[event]++
	if sp.strategyFails[event] < limit {
		return
	}
	delete(sp.strategies, event)
	delete(sp.strategyFails, event)
	sp.stats.QuarantinedStrategies++
	sp.logf("core: strategy %q quarantined after %d consecutive budget aborts (last: %v)",
		event, limit, err)
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

// buildScriptSelf constructs the `self` table passed to script strategies.
// It is rebuilt per activation so monitor bindings always track the current
// selection.
func (sp *SmartProxy) buildScriptSelf(ctx context.Context) script.Value {
	self := script.NewTable()
	self.SetString("_observer", script.Ref(sp.observerRef))

	// self:_select(query) — Fig. 7 line 9.
	self.SetString("_select", script.Func("_select", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		query := ""
		if len(args) > 1 {
			query = args[1].Str()
		}
		// Runs without sp.mu: Select takes its own locks. The strategy
		// runs under adaptMu, so concurrent adaptations cannot interleave.
		ok, err := sp.selectUnlockedFromScript(ctx, query)
		if err != nil {
			return []script.Value{script.Bool(false)}, nil
		}
		return []script.Value{script.Bool(ok)}, nil
	}))

	// self:monitor(prop) — generalized accessor; also bind the watched
	// properties as _<lowercased-prop>mon fields (Fig. 7's _loadavgmon).
	makeMonObj := func(ref wire.ObjRef) script.Value {
		t := script.NewTable()
		t.SetString("ref", script.Ref(ref))
		t.SetString("getValue", script.Func("monitor.getValue", func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
			rs, err := sp.opts.Client.Invoke(ctx, ref, "getValue")
			if err != nil {
				return nil, err
			}
			return fromWireAll(rs), nil
		}))
		t.SetString("getAspectValue", script.Func("monitor.getAspectValue", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("getAspectValue: name required")
			}
			rs, err := sp.opts.Client.Invoke(ctx, ref, "getAspectValue", wire.String(args[1].Str()))
			if err != nil {
				return nil, err
			}
			return fromWireAll(rs), nil
		}))
		t.SetString("getAspectValues", script.Func("monitor.getAspectValues", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("getAspectValues: name required")
			}
			names := make([]wire.Value, len(args)-1)
			for i, a := range args[1:] {
				names[i] = wire.String(a.Str())
			}
			rs, err := sp.opts.Client.Invoke(ctx, ref, "getAspectValues", names...)
			if err != nil {
				return nil, err
			}
			return fromWireAll(rs), nil
		}))
		t.SetString("attachEventObserver", script.Func("monitor.attachEventObserver", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
			if len(args) < 4 {
				return nil, fmt.Errorf("attachEventObserver: observer, event, code required")
			}
			obsRef, _ := args[1].AsRef()
			rs, err := sp.opts.Client.Invoke(ctx, ref, "attachEventObserver",
				wire.Ref(obsRef), wire.String(args[2].Str()), wire.String(args[3].Str()))
			if err != nil {
				return nil, err
			}
			// Re-arming a watch from a strategy replaces the proxy's
			// managed observation on this monitor (Fig. 7 relaxation).
			if obsRef == sp.observerRef && len(rs) > 0 {
				sp.replaceObservation(ref, int(rs[0].Num()))
			}
			return fromWireAll(rs), nil
		}))
		t.SetString("detachEventObserver", script.Func("monitor.detachEventObserver", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("detachEventObserver: id required")
			}
			_, err := sp.opts.Client.Invoke(ctx, ref, "detachEventObserver", wire.Int(int(args[1].Num())))
			return nil, err
		}))
		return script.TableVal(t)
	}

	sp.mu.Lock()
	sel := sp.sel
	sp.mu.Unlock()
	if sel != nil {
		// Properties served by one monitor (Fig. 6: LoadAvg and
		// LoadAvgIncreasing) share one monitor object.
		type builtMon struct {
			ref wire.ObjRef
			obj script.Value
		}
		built := make([]builtMon, 0, 4)
		for prop := range sel.result.Offer.Props {
			ref, ok := sel.result.Offer.MonitorFor(prop)
			if !ok {
				continue
			}
			i := slices.IndexFunc(built, func(b builtMon) bool { return b.ref == ref })
			if i < 0 {
				i = len(built)
				built = append(built, builtMon{ref, makeMonObj(ref)})
			}
			self.SetString("_"+lowercase(prop)+"mon", built[i].obj)
			self.SetString("_monitor_"+prop, built[i].obj)
		}
		self.SetString("_server", script.Ref(sel.result.Offer.Ref))
	}
	return script.TableVal(self)
}

// selectUnlockedFromScript is Select without the re-entrant adaptMu (the
// caller already holds it via runStrategies) and without sp.mu held.
func (sp *SmartProxy) selectUnlockedFromScript(ctx context.Context, constraint string) (bool, error) {
	return sp.Select(ctx, constraint)
}

func fromWireAll(vs []wire.Value) []script.Value {
	out := make([]script.Value, len(vs))
	for i, v := range vs {
		out[i] = script.FromWire(v)
	}
	return out
}

func lowercase(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
