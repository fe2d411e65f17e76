package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"autoadapt/internal/script"
	"autoadapt/internal/strikes"
)

// Strategy quarantine: adaptation strategies are shipped code (the
// paper's Fig. 7 arrives over the wire), so one that repeatedly blows
// its execution budget is uninstalled instead of wedging every Adapt
// pass, while ordinary strategy errors keep the normal semantics.

const hogStrategySrc = `function(self) while true do end end`

func TestScriptStrategyQuarantine(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{MaxScriptSteps: 5000})
	if err := sp.SetScriptStrategy("Hog", hogStrategySrc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < strikes.Limit; i++ {
		sp.OnEvent("Hog")
		err := sp.Adapt(ctx)
		if err == nil || !script.IsBudgetError(errors.Unwrap(err)) && !strings.Contains(err.Error(), "budget") {
			t.Fatalf("Adapt %d: err = %v, want budget abort", i+1, err)
		}
	}
	if got := sp.Stats().QuarantinedStrategies; got != 1 {
		t.Fatalf("QuarantinedStrategies = %d, want 1", got)
	}
	// The strategy is gone: the same event now adapts cleanly (and fast).
	sp.OnEvent("Hog")
	if err := sp.Adapt(ctx); err != nil {
		t.Fatalf("Adapt after quarantine: %v (strategy should be uninstalled)", err)
	}
}

func TestScriptStrategyOrdinaryErrorsNotQuarantined(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{MaxScriptSteps: 5000})
	if err := sp.SetScriptStrategy("Buggy", `function(self) error("boom") end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < strikes.Limit*3; i++ {
		sp.OnEvent("Buggy")
		if err := sp.Adapt(ctx); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("Adapt %d: err = %v, want the strategy's own error", i+1, err)
		}
	}
	if got := sp.Stats().QuarantinedStrategies; got != 0 {
		t.Fatalf("QuarantinedStrategies = %d, want 0 (ordinary errors must not quarantine)", got)
	}
}

func TestScriptStrategySuccessResetsQuarantineCounter(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{MaxScriptSteps: 5000})
	// Script strategies share one interpreter, so a global survives across
	// activations: abort twice, succeed, repeat — the consecutive counter
	// never reaches three.
	if err := sp.SetScriptStrategy("Flaky", `function(self)
		n = (n or 0) + 1
		if n % 3 == 0 then return end
		while true do end
	end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		sp.OnEvent("Flaky")
		_ = sp.Adapt(ctx)
	}
	if got := sp.Stats().QuarantinedStrategies; got != 0 {
		t.Fatalf("QuarantinedStrategies = %d, want 0 (successes must reset the counter)", got)
	}
	// Still installed: the next cycle keeps running it.
	sp.OnEvent("Flaky")
	if err := sp.Adapt(ctx); err == nil {
		t.Fatal("strategy vanished despite never hitting the threshold")
	}
}

// TestReinstalledScriptStrategyStartsClean: strikes belong to one installed
// strategy, so new code pushed for an event does not inherit the aborts of
// the code it replaces — through either install path.
func TestReinstalledScriptStrategyStartsClean(t *testing.T) {
	for name, install := range map[string]func(*SmartProxy) error{
		"SetScriptStrategy": func(sp *SmartProxy) error { return sp.SetScriptStrategy("Hog", hogStrategySrc) },
		"SetScriptStrategiesTable": func(sp *SmartProxy) error {
			return sp.SetScriptStrategiesTable(`{ Hog = ` + hogStrategySrc + ` }`)
		},
	} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, 1)
			w.setLoad(0, 10, 15, 15)
			sp := w.newProxy(Options{MaxScriptSteps: 5000})
			ctx := context.Background()
			abort := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					sp.OnEvent("Hog")
					if err := sp.Adapt(ctx); err == nil {
						t.Fatal("Adapt: nil error, want budget abort (strategy must be installed)")
					}
				}
			}
			if err := install(sp); err != nil {
				t.Fatal(err)
			}
			abort(strikes.Limit - 1)
			if err := install(sp); err != nil {
				t.Fatal(err)
			}
			abort(1)
			if got := sp.Stats().QuarantinedStrategies; got != 0 {
				t.Fatalf("QuarantinedStrategies = %d, want 0 (reinstalled code inherited its predecessor's strikes)", got)
			}
			abort(1) // still installed: the next activation still runs it
		})
	}
}
