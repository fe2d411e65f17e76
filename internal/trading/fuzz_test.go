package trading

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
	// conjunct-wise evaluation: or, not, exist on a dynamic name, a
	// bareword, a division by zero in a static conjunct, a chain past 64
	"LoadAvg < 50 or Cores >= 2 and LoadAvgIncreasing == no", "not (Cores >= 2) and LoadAvg < 50",
	"exist LoadAvg and Cores >= 2", "LoadAvgIncreasing == no and Cores >= 2", "Cores / 0 == 1 and LoadAvg < 50",
	longChain + " and true", longChain + " and q == 1",
	// the truth-valued path, on fuzzLookup's kinds by name length: nan is
	// NaN, negz -0, zeroP +0, up true, isDown1 false, s the string "no",
	// alpha1 the string "alpha1", missingProp1 absent (a bareword); yes and
	// no are properties too, so the words a bool equals are quoted
	"nan < 1", "1 < nan", "nan <= 1", "1 <= nan", "nan > 1", "1 > nan", "nan >= 1", "1 >= nan",
	"nan == nan", "nan != nan", "nan == 1", "nan < nan",
	"-0 == 0", "negz == 0", "negz != 0", "negz == zeroP", "negz < zeroP", "negz >= zeroP", "-zeroP == negz",
	"up == 'yes'", "up == 'no'", "up == 'true'", "up == 'false'", "'yes' == up", "up != 'no'", "up == true", "up == false",
	"isDown1 == 'no'", "isDown1 == 'false'", "isDown1 == 'yes'", "isDown1 != 'true'", "up == s", "isDown1 == s", "up == no",
	"alpha1 < 'beta'", "alpha1 >= alpha1", "alpha1 > s", "s < 'np'", "'a' < 'b'", "s <= no",
	"missingProp1 < 5", "5 > missingProp1", "missingProp1 == 5", "missingProp1 == missingProp1", "missingProp1 > 'm'",
	"not (nan < 1)", "not (up == no) and negz == 0", "nan < 1 or up == yes", "not (missingProp1 < 5)",
	"missingProp1 < 5 or up == yes", "up == yes or missingProp1 < 5", "not not (alpha1 < s)", "not exist missingProp1 or nan >= nan",
	// rejected by the parser
	"x ==", "(x == 1", "x == 'unterminated", "and x", "x == 1 extra garbage(", "exist", "x @ 1", "1..2 == 1",
}

// longChain is an "and" chain of 70 conjuncts, each true of any value.
var longChain = func() string {
	terms := make([]string, 70)
	for i := range terms {
		terms[i] = fmt.Sprintf("x%d != 'zz'", i)
	}
	return strings.Join(terms, " and ")
}()

// preferenceSeeds are the preferences this package's tests already use.
var preferenceSeeds = []string{
	"", "first", "random", "min LoadAvg", "max LoadAvg", "with LoadAvgIncreasing == no",
	"min LoadAvg / Weight", "min rank", "min MemFree", "min Load", "min Trend",
	// rejected by the parser
	"minLoadAvg", "min", "max ", "with", "sideways x",
}

// fuzzLookup serves a property of every kind a wire.Value has — numbers
// (NaN and both zeros among them), strings, bools, nil, bytes, a table and
// an object reference — or reports it missing, chosen by the name's length
// so fuzzed names reach every kind. It records each name it is asked for.
func fuzzLookup(asked map[string]bool) PropLookup {
	return func(name string) (wire.Value, bool) {
		asked[name] = true
		switch len(name) % 13 {
		case 0:
			return wire.Number(float64(len(name))), true
		case 1:
			return wire.String("no"), true
		case 2:
			return wire.Bool(true), true
		case 3:
			return wire.Number(math.NaN()), true
		case 4:
			return wire.Number(math.Copysign(0, -1)), true
		case 5:
			return wire.Number(0), true
		case 6:
			return wire.String(name), true
		case 7:
			return wire.Bool(false), true
		case 8:
			return wire.Nil(), true
		case 9:
			return wire.Bytes([]byte("no")), true
		case 10:
			return wire.TableVal(wire.NewList(wire.Number(1), wire.String("no"))), true
		case 11:
			return wire.Ref(wire.ObjRef{Endpoint: "inproc|host", Key: "monitor/" + name}), true
		}
		return wire.Value{}, false
	}
}

// checkAsked fails unless every name the evaluator looked up is among refs:
// the trader resolves only the referenced names before it evaluates, so a name missing
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
// looks up only the names it references and evaluates, compiled, exactly as the
// reference tree walk does: the same value, the same error-or-not, and
// through the public Eval and the truth-valued test the same error text. Evaluated conjunct by
// conjunct as the trader does — the static pass over the refs marked
// static, then the conjuncts it left open — it accepts exactly when the
// reference is truthy without error, whichever refs are marked dynamic.
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
		lookup := fuzzLookup(asked)
		want, werr := c.root.eval(lookup)
		got, gerr := c.root.run(lookupVals(c.refs, lookup))
		ok, err := c.Eval(lookup)
		switch {
		case (gerr == nil) != (werr == nil) || (err == nil) != (werr == nil):
			t.Fatalf("%q: compiled err %v, Eval err %v, reference err %v", src, gerr, err, werr)
		case werr != nil && err.Error() != werr.Error():
			t.Fatalf("%q: Eval error %q, reference %q", src, err, werr)
		case werr == nil && (!got.Equal(want) || ok != want.Truthy()):
			t.Fatalf("%q: compiled %v (Eval %v), reference %v", src, got, ok, want)
		}
		checkAsked(t, src, asked, c.refs)
		vals := lookupVals(c.refs, lookup)
		if ok, err := c.root.test(vals); (err == nil) != (werr == nil) || werr != nil && err.Error() != werr.Error() || werr == nil && ok != want.Truthy() {
			t.Fatalf("%q: truth %v (err %v), reference %v (err %v)", src, ok, err, want, werr)
		}
		for _, dyn := range []uint64{0, ^uint64(0), FNVString(FNVOffset64, src)} {
			static := slices.Clone(vals)
			for u := range static {
				if dyn>>(u%64)&1 != 0 {
					static[u] = &unresolved
				}
			}
			open, pass := c.passStatic(static)
			if pass = pass && c.passRest(open, vals); pass != (werr == nil && want.Truthy()) {
				t.Fatalf("%q: conjunct-wise %v with dynamic refs %b, reference %v (err %v)", src, pass, dyn, want, werr)
			}
		}
	})
}

// FuzzParsePreference is FuzzParseConstraint for preferences: the compiled
// sort key equals the reference's.
func FuzzParsePreference(f *testing.F) {
	addSeeds(f, preferenceSeeds, diffQueries.preferences)
	for _, q := range batchQueries {
		f.Add(q.pref)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePreference(src)
		if err != nil || p.kind == prefFirst {
			return // "first" keeps export order: there is no key
		}
		asked := map[string]bool{}
		lookup := fuzzLookup(asked)
		for _, id := range []string{"offer-1", "offer-2"} {
			want := referenceKey(p, id, lookup)
			got := p.key(id, lookupVals(p.refs, lookup))
			if got != want && !(math.IsNaN(got.num) && math.IsNaN(want.num) && got.ok == want.ok) {
				t.Fatalf("%q: key of %s %+v, reference %+v", src, id, got, want)
			}
		}
		checkAsked(t, src, asked, p.refs)
	})
}
