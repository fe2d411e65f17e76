package idl

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"autoadapt/internal/wire"
)

// paperIDL is the union of the paper's Fig. 1 and Fig. 2 definitions,
// parsed verbatim (modulo typedef declarations that the paper leaves
// implicit).
const paperIDL = `
typedef any PropertyValue;
typedef string AspectName;
typedef string Aspectname;
typedef sequence<string> AspectList;
typedef string LuaCode;
typedef string EventID;
typedef double EventObserverID;

interface AspectsManager {
    PropertyValue getAspectValue(in Aspectname name);
    AspectList definedAspects();
    void defineAspect(in AspectName name, in LuaCode updatef);
};

interface BasicMonitor : AspectsManager {
    any getValue();
    void setValue(in any v);
};

interface EventObserver {
    oneway void notifyEvent(in EventID evid);
};

interface EventMonitor : BasicMonitor {
    EventObserverID attachEventObserver(in EventObserver obj, in EventID evid, in LuaCode notifyf);
    void detachEventObserver(in EventObserverID id);
};
`

func loadPaper(t *testing.T) *Repository {
	t.Helper()
	r := NewRepository()
	if err := r.LoadIDL(paperIDL); err != nil {
		t.Fatalf("LoadIDL(paper): %v", err)
	}
	return r
}

func TestParsePaperInterfaces(t *testing.T) {
	r := loadPaper(t)
	var names []string
	for n := range r.interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	want := []string{"AspectsManager", "BasicMonitor", "EventMonitor", "EventObserver"}
	if !slices.Equal(names, want) {
		t.Fatalf("interfaces = %v, want %v", names, want)
	}
}

func TestOperationMetadata(t *testing.T) {
	r := loadPaper(t)
	am := r.interfaces["AspectsManager"]
	if am == nil {
		t.Fatal("AspectsManager not registered")
	}
	op := am.Ops["defineAspect"]
	if op == nil {
		t.Fatal("defineAspect missing")
	}
	if len(op.Params) != 2 {
		t.Fatalf("defineAspect params = %d, want 2", len(op.Params))
	}
	if op.Params[0].Type != TypeString || op.Params[1].Type != TypeString {
		t.Fatalf("defineAspect param types = %v, %v", op.Params[0].Type, op.Params[1].Type)
	}
	if op.Ret != TypeVoid {
		t.Fatalf("defineAspect ret = %v, want void", op.Ret)
	}
}

func TestOnewayParsed(t *testing.T) {
	r := loadPaper(t)
	op := r.ResolveOp("EventObserver", "notifyEvent")
	if op == nil {
		t.Fatal("notifyEvent missing")
	}
	if !op.Oneway {
		t.Fatal("notifyEvent should be oneway")
	}
}

func TestInheritanceResolution(t *testing.T) {
	r := loadPaper(t)
	// EventMonitor inherits getValue from BasicMonitor, and getAspectValue
	// from AspectsManager two levels up.
	if r.ResolveOp("EventMonitor", "getValue") == nil {
		t.Fatal("EventMonitor should inherit getValue")
	}
	if r.ResolveOp("EventMonitor", "getAspectValue") == nil {
		t.Fatal("EventMonitor should inherit getAspectValue transitively")
	}
	if r.ResolveOp("EventMonitor", "nope") != nil {
		t.Fatal("unknown op resolved")
	}
	if r.ResolveOp("Unknown", "x") != nil {
		t.Fatal("unknown interface resolved")
	}
}

func TestInheritanceCycleIsSafe(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`
		interface A : B { void fa(); };
		interface B : A { void fb(); };
	`)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResolveOp("A", "fb") == nil {
		t.Fatal("fb should resolve through the cycle")
	}
	if r.ResolveOp("A", "missing") != nil {
		t.Fatal("cycle lookup did not terminate correctly")
	}
}

func TestCheckCallAcceptsValidArgs(t *testing.T) {
	r := loadPaper(t)
	op, err := r.CheckCall("EventMonitor", "attachEventObserver", []wire.Value{
		wire.Ref(wire.ObjRef{Endpoint: "tcp|c:1", Key: "obs"}),
		wire.String("LoadIncrease"),
		wire.String("function(...) return true end"),
	})
	if err != nil {
		t.Fatalf("CheckCall: %v", err)
	}
	if op.Name != "attachEventObserver" {
		t.Fatalf("resolved op = %q", op.Name)
	}
}

func TestCheckCallRejectsWrongKind(t *testing.T) {
	r := loadPaper(t)
	_, err := r.CheckCall("AspectsManager", "getAspectValue", []wire.Value{wire.Number(5)})
	if err == nil {
		t.Fatal("number accepted where string expected")
	}
	var bad *BadCallError
	if !strings.Contains(err.Error(), "argument 1") {
		t.Fatalf("err = %v", err)
	}
	if !asBadCall(err, &bad) {
		t.Fatalf("err type = %T", err)
	}
}

func asBadCall(err error, out **BadCallError) bool {
	b, ok := err.(*BadCallError)
	if ok {
		*out = b
	}
	return ok
}

func TestCheckCallRejectsUnknownOp(t *testing.T) {
	r := loadPaper(t)
	if _, err := r.CheckCall("AspectsManager", "nosuch", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCheckCallRejectsTooManyArgs(t *testing.T) {
	r := loadPaper(t)
	_, err := r.CheckCall("AspectsManager", "definedAspects", []wire.Value{wire.Int(1)})
	if err == nil {
		t.Fatal("extra argument accepted")
	}
}

func TestCheckCallAllowsMissingTrailingArgs(t *testing.T) {
	r := loadPaper(t)
	if _, err := r.CheckCall("AspectsManager", "getAspectValue", nil); err != nil {
		t.Fatalf("missing trailing arg rejected: %v", err)
	}
}

func TestCheckCallNilArgsAccepted(t *testing.T) {
	r := loadPaper(t)
	_, err := r.CheckCall("AspectsManager", "getAspectValue", []wire.Value{wire.Nil()})
	if err != nil {
		t.Fatalf("nil arg rejected: %v", err)
	}
}

func TestTypeAccepts(t *testing.T) {
	tests := []struct {
		t    TypeKind
		k    wire.Kind
		want bool
	}{
		{TypeAny, wire.KindTable, true},
		{TypeBool, wire.KindBool, true},
		{TypeBool, wire.KindNumber, false},
		{TypeNumber, wire.KindNumber, true},
		{TypeNumber, wire.KindString, false},
		{TypeString, wire.KindString, true},
		{TypeString, wire.KindBytes, true},
		{TypeObject, wire.KindObjRef, true},
		{TypeObject, wire.KindString, false},
		{TypeTable, wire.KindTable, true},
		{TypeVoid, wire.KindNil, true},
		{TypeVoid, wire.KindNumber, false},
	}
	for _, tt := range tests {
		if got := tt.t.Accepts(tt.k); got != tt.want {
			t.Errorf("%v.Accepts(%v) = %v, want %v", tt.t, tt.k, got, tt.want)
		}
	}
}

func TestModuleFlattening(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`
		module LuaMonitor {
			interface Probe { any getValue(); };
		};
	`)
	if err != nil {
		t.Fatal(err)
	}
	if r.interfaces["Probe"] == nil {
		t.Fatal("interface inside module not registered")
	}
}

func TestComments(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`
		// line comment
		/* block
		   comment */
		interface C { void f(in long x); };
	`)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResolveOp("C", "f") == nil {
		t.Fatal("interface after comments not parsed")
	}
}

func TestNumericTypeVariants(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`
		interface N {
			void f(in long a, in short b, in unsigned long c, in float d, in double e);
		};
	`)
	if err != nil {
		t.Fatal(err)
	}
	op := r.ResolveOp("N", "f")
	if len(op.Params) != 5 {
		t.Fatalf("params = %d, want 5", len(op.Params))
	}
	for i, p := range op.Params {
		if p.Type != TypeNumber {
			t.Errorf("param %d type = %v, want number", i, p.Type)
		}
	}
}

func TestReadonlyAttributeBecomesGetter(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`interface A { readonly attribute double load; };`)
	if err != nil {
		t.Fatal(err)
	}
	op := r.ResolveOp("A", "load")
	if op == nil || op.Ret != TypeNumber || len(op.Params) != 0 {
		t.Fatalf("attribute getter = %+v", op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"interface { };",
		"interface X { void f(in long); };",    // unnamed param
		"interface X { void f(out long a); };", // out unsupported
		"interface X { oneway long f(); };",    // oneway must be void
		"interface X { void f(in long a) };",   // missing semicolon
		"typedef double;",                      // unnamed typedef
		"garbage",
		"interface X : { void f(); };",
	}
	for _, src := range bad {
		r := NewRepository()
		if err := r.LoadIDL(src); err == nil {
			t.Errorf("LoadIDL(%q) succeeded, want error", src)
		}
	}
}

func TestTypedefResolution(t *testing.T) {
	r := NewRepository()
	err := r.LoadIDL(`
		typedef string EventID;
		interface E { void f(in EventID id); };
	`)
	if err != nil {
		t.Fatal(err)
	}
	op := r.ResolveOp("E", "f")
	if op.Params[0].Type != TypeString {
		t.Fatalf("typedef not resolved: %v", op.Params[0].Type)
	}
	// Unknown named types degrade to any.
	if err := r.LoadIDL(`interface F { void g(in Mystery m); };`); err != nil {
		t.Fatal(err)
	}
	if got := r.ResolveOp("F", "g").Params[0].Type; got != TypeAny {
		t.Fatalf("unknown type = %v, want any", got)
	}
}
