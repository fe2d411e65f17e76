package trading

import (
	"slices"
	"testing"

	"autoadapt/internal/wire"
)

// constraintSeeds are the constraints this package's tests already use.
var constraintSeeds = []string{
	"", "   ", "true", "false",
	"LoadAvg < 50 and LoadAvgIncreasing == no",
	"LoadAvg < 50", "LoadAvg < 99", "LoadAvg < 2000 and LoadAvgIncreasing == no and Cores >= 2",
	"x == 10", "x != 10", "x > 9", "x >= 10", "x < 10", "x <= 10",
	"x + y == 13", "x - y == 7", "x * y == 30", "x / 2 == 5", "x + 2 * y == 16", "(x + 2) * y == 36",
	"-x == -10", "not (x > 100)", "x > 5 and y > 1", "x > 100 or y > 1",
	"exist x", "exist missing", "not exist missing",
	"name == 'alpha'", `name == "alpha"`, "name == alpha", "name < beta",
	"up == true", "up == yes", "up != no", "2.5e1 == 25",
	"s + 1 == 2", "n / 0 == 1", "-s == 0", "n < missing",
	"a + b * 2 - a / b", "Load < 10", "Load < 25",
	// rejected by the parser
	"x ==", "(x == 1", "x == 'unterminated", "and x", "x == 1 extra garbage(", "exist", "x @ 1", "1..2 == 1",
}

// preferenceSeeds are the preferences this package's tests already use.
var preferenceSeeds = []string{
	"", "first", "random", "min LoadAvg", "max LoadAvg", "with LoadAvgIncreasing == no",
	"min LoadAvg / Weight", "min rank", "min MemFree", "min Load", "min Trend",
	// rejected by the parser
	"minLoadAvg", "min", "max ", "with", "sideways x",
}

// fuzzLookup serves a property of every kind the evaluator tells apart —
// number, string, bool — or reports it missing, chosen by the name's
// length so fuzzed names reach every kind. It records each name it is
// asked for.
func fuzzLookup(asked map[string]bool) PropLookup {
	return func(name string) (wire.Value, bool) {
		asked[name] = true
		switch len(name) % 4 {
		case 0:
			return wire.Number(float64(len(name))), true
		case 1:
			return wire.String("no"), true
		case 2:
			return wire.Bool(true), true
		}
		return wire.Value{}, false
	}
}

// checkAsked fails unless every name the evaluator looked up is among refs:
// the trader resolves only PropRefs() before it evaluates, so a name missing
// there would be read unresolved.
func checkAsked(t *testing.T, src string, asked map[string]bool, refs []string) {
	t.Helper()
	for name := range asked {
		if !slices.Contains(refs, name) {
			t.Fatalf("%q: evaluation looked up %q, not in PropRefs %v", src, name, refs)
		}
	}
}

func addSeeds(f *testing.F, seeds ...[]string) {
	for _, list := range seeds {
		for _, s := range list {
			f.Add(s)
		}
	}
}

// FuzzParseConstraint: parsing never panics, and an accepted constraint
// evaluates without panicking and looks up only names in PropRefs().
func FuzzParseConstraint(f *testing.F) {
	addSeeds(f, constraintSeeds, diffQueries.constraints)
	for _, q := range batchQueries {
		f.Add(q.cons)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseConstraint(src)
		if err != nil {
			return
		}
		asked := map[string]bool{}
		_, _ = c.Eval(fuzzLookup(asked))
		checkAsked(t, src, asked, c.PropRefs())
	})
}

// FuzzParsePreference is FuzzParseConstraint for preferences.
func FuzzParsePreference(f *testing.F) {
	addSeeds(f, preferenceSeeds, diffQueries.preferences)
	for _, q := range batchQueries {
		f.Add(q.pref)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePreference(src)
		if err != nil {
			return
		}
		asked := map[string]bool{}
		lookup := fuzzLookup(asked)
		if err := p.rank([]int{0, 1}, make([]prefKey, 2), func(i int) (string, PropLookup) {
			return []string{"offer-1", "offer-2"}[i], lookup
		}); err != nil {
			t.Fatalf("%q: rank: %v", src, err)
		}
		checkAsked(t, src, asked, p.PropRefs())
	})
}
