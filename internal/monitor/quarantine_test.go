package monitor

import (
	"testing"

	"autoadapt/internal/strikes"
	"autoadapt/internal/wire"
)

// Script-quarantine semantics: shipped code that repeatedly blows its
// execution budget is evicted so one hostile (or broken) aspect cannot
// consume the monitor's tick loop forever, while ordinary script errors
// and recovering scripts are left alone.

const hogSrc = `function(self, v, mon) while true do end end`

func newBudgetedMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := New(Options{Name: "q", MaxScriptSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestAspectQuarantineAfterBudgetAborts(t *testing.T) {
	m := newBudgetedMonitor(t)
	if err := m.DefineAspect("hog", hogSrc); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineAspect("healthy", `function(self, v, mon)
		self.n = (self.n or 0) + 1
		return self.n
	end`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strikes.Limit; i++ {
		if got := m.AspectCount(); got != 2 {
			t.Fatalf("AspectCount before abort %d = %d, want 2", i+1, got)
		}
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if got := m.AspectCount(); got != 1 {
		t.Fatalf("AspectCount after %d budget aborts = %d, want 1 (hog evicted)",
			strikes.Limit, got)
	}
	// The healthy aspect survived and kept computing through the aborts.
	v, err := m.AspectValue("healthy")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != float64(strikes.Limit) {
		t.Fatalf("healthy aspect = %v, want %d", v.Num(), strikes.Limit)
	}
}

func TestOrdinaryScriptErrorsDoNotQuarantine(t *testing.T) {
	m := newBudgetedMonitor(t)
	// Indexing a nil field is an ordinary runtime error, not a budget
	// abort: the aspect stays installed no matter how often it fails.
	if err := m.DefineAspect("buggy", `function(self, v, mon) return v.missing.deep end`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strikes.Limit*3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if got := m.AspectCount(); got != 1 {
		t.Fatalf("AspectCount = %d, want 1 (ordinary errors must not quarantine)", got)
	}
}

func TestQuarantineCounterResetsOnSuccess(t *testing.T) {
	m := newBudgetedMonitor(t)
	// Aborts twice, then succeeds, in a cycle: the consecutive-abort
	// counter never reaches the threshold of three.
	if err := m.DefineAspect("flaky", `function(self, v, mon)
		self.n = (self.n or 0) + 1
		if self.n % 3 == 0 then return self.n end
		while true do end
	end`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if got := m.AspectCount(); got != 1 {
		t.Fatalf("AspectCount = %d, want 1 (successes must reset the abort counter)", got)
	}
}

func TestPredicateQuarantineAfterBudgetAborts(t *testing.T) {
	m := newBudgetedMonitor(t)
	if _, err := m.AttachObserver(wire.ObjRef{Endpoint: "tcp|h:1", Key: "o"},
		"HogEvent", `function(obs, v, mon) while true do end end`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strikes.Limit; i++ {
		if got := m.ObserverCount(); got != 1 {
			t.Fatalf("ObserverCount before abort %d = %d, want 1", i+1, got)
		}
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if got := m.ObserverCount(); got != 0 {
		t.Fatalf("ObserverCount after %d budget aborts = %d, want 0 (predicate evicted)",
			strikes.Limit, got)
	}
}
