package monitor

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// Tests of the servant's written reads (AppendResults): the same bytes and
// the same errors as the values it used to return, and what a read costs.

// replyAspects are the shapes the corpus values take on their way out: the
// value itself, lists and records holding it, a list with a hole in its
// array part, and functions, which cannot cross the wire, alone and in a
// list.
var replyAspects = map[string]string{
	"Same":   `function(self, v) return v end`,
	"Pair":   `function(self, v) return {v, v} end`,
	"Holey":  `function(self, v) local t = {1, 2, 3}; t[2] = nil; t[1] = v; return t end`,
	"Rec":    `function(self, v) return {x = v, [2] = 1} end`,
	"Fn":     `function(self, v) return function() end end`,
	"FnList": `function(self, v) return {1, function() end} end`,
}

// replyCorpus is the value corpus: numbers (zero, negative zero, NaN, an
// infinity, a fraction), booleans, nil, short, empty and 1 KiB+ strings,
// bytes, a reference, a load triple, a mixed list, an empty table, nested
// tables and a list nested as deep as the encoder goes.
func replyCorpus() []wire.Value {
	long := strings.Repeat("load", 300)
	ref := wire.Ref(wire.ObjRef{Endpoint: "tcp|host:9050", Key: "monitor/LoadAvg"})
	nested := wire.NewTable()
	nested.SetString("inner", wire.TableVal(wire.NewList(wire.Int(1), wire.String("a"), ref)))
	_ = nested.Set(wire.Int(5), wire.Bool(true))
	_ = nested.Set(wire.Int(1), wire.TableVal(wire.NewList(wire.TableVal(wire.NewList(wire.String(long))))))
	deep := wire.Int(1) // as deep as a value can be encoded: Pair's list of it cannot be
	for i := 0; i < 64; i++ {
		deep = wire.TableVal(wire.NewList(deep))
	}
	return []wire.Value{
		wire.Int(0), wire.Number(math.Copysign(0, -1)), wire.Number(math.NaN()), wire.Number(math.Inf(1)), wire.Number(2.5),
		wire.Bool(true), wire.Bool(false), wire.Nil(),
		wire.String("no"), wire.String(""), wire.String(long), wire.Bytes([]byte{0, 1, 2}), ref,
		wire.TableVal(wire.NewList(wire.Number(1), wire.Number(5), wire.Number(15))),
		wire.TableVal(wire.NewList(wire.String(long), wire.Bool(false), ref, wire.Number(-1))),
		wire.TableVal(wire.NewTable()),
		wire.TableVal(nested), deep,
	}
}

// replyCalls are the reads checked on every value, well formed and not.
var replyCalls = []struct {
	op   string
	args []string // nil: no arguments
	num  bool     // one number argument instead
}{
	{op: "getValue"},
	{op: "getAspectValue", args: []string{"Same"}},
	{op: "getAspectValue", args: []string{"Pair"}},
	{op: "getAspectValue", args: []string{"Holey"}},
	{op: "getAspectValue", args: []string{"Rec"}},
	{op: "getAspectValue", args: []string{"Fn"}},
	{op: "getAspectValue", args: []string{"FnList"}},
	{op: "getAspectValue", args: []string{"missing"}},
	{op: "getAspectValue", args: []string{""}},
	{op: "getAspectValue"},
	{op: "getAspectValues", args: []string{"Same", "", "Pair", "Holey", "Rec"}},
	{op: "getAspectValues", args: []string{""}},
	{op: "getAspectValues", args: []string{"Same", "missing"}},
	{op: "getAspectValues", args: []string{"Pair", "FnList"}},
	{op: "getAspectValues"},
	{op: "getAspectValues", num: true},
}

func newReplyMonitor(t testing.TB) (*Monitor, *Servant) {
	t.Helper()
	m, err := New(Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	for name, src := range replyAspects {
		if err := m.DefineAspect(name, src); err != nil {
			t.Fatal(err)
		}
	}
	return m, NewServant(m)
}

// reference answers a read the way the servant did before it wrote its
// replies, one name at a time, each value through ToWire, and fails on the
// first value that cannot be converted or encoded.
func reference(m *Monitor, op string, args []wire.Value) ([]wire.Value, error) {
	var out []wire.Value
	for _, a := range args {
		read := func() (wire.Value, error) { return m.AspectValue(a.Str()) }
		if op == "getAspectValues" && a.Str() == "" {
			read = m.Value
		}
		v, err := read()
		if err != nil {
			return nil, wrapMonErr(err)
		}
		if _, err := wire.EncodeValue(v); err != nil {
			return nil, orb.Appf("%v", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkReplies sets v as m's value and checks every read in replyCalls:
// what AppendResults writes after a reply header is wire.AppendReply of
// Invoke's results and of the reference's, and a read that fails, or whose
// values cannot be encoded, fails with the same application error.
// AppendResults leaves exactly getAspectValue without a name, or with "",
// to Invoke.
func checkReplies(t *testing.T, m *Monitor, s *Servant, v wire.Value) {
	t.Helper()
	if err := m.SetValue(v); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, c := range replyCalls {
		var args []wire.Value
		for _, a := range c.args {
			args = append(args, wire.String(a))
		}
		if c.num {
			args = []wire.Value{wire.Int(1)}
		}
		name := c.op + "(" + strings.Join(c.args, ", ") + ")"
		got, handled, gerr := s.AppendResults(wire.AppendReplyHeader(nil, 7), c.op, args)
		res, ierr := s.Invoke(c.op, args)
		if want := !(c.op == "getAspectValue" && (len(args) == 0 || args[0].Str() == "")); handled != want {
			t.Fatalf("%s of %v: handled %v, want %v", name, v, handled, want)
		}
		if !handled {
			continue
		}
		ref, rerr := res, ierr
		if c.op != "getValue" && len(args) > 0 && !c.num {
			ref, rerr = reference(m, c.op, args)
		}
		for _, w := range []struct {
			rs  []wire.Value
			err error
		}{{res, ierr}, {ref, rerr}} {
			var want []byte
			if w.err == nil {
				// A value nested too deep to encode fails the written read
				// with the encoder's error, where the server used to fail
				// to encode the values returned and send no reply at all.
				if want, w.err = wire.AppendReply(nil, &wire.Reply{ID: 7, Results: w.rs}); w.err != nil {
					w.err = orb.Appf("%v", errors.Unwrap(w.err))
				}
			}
			var app *orb.AppError
			switch {
			case (gerr == nil) != (w.err == nil):
				t.Fatalf("%s of %v: written error %v, want %v", name, v, gerr, w.err)
			case gerr != nil && (!errors.As(gerr, &app) || !errors.As(w.err, &app) || gerr.Error() != w.err.Error()):
				t.Fatalf("%s of %v: written error %q (%T), want %q (%T)", name, v, gerr, gerr, w.err, w.err)
			case gerr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s of %v:\nwritten %x\nwant    %x", name, v, got, want)
			}
		}
	}
}

// TestAppendResultsMatchesInvoke runs checkReplies over the value corpus.
func TestAppendResultsMatchesInvoke(t *testing.T) {
	m, s := newReplyMonitor(t)
	for _, v := range replyCorpus() {
		checkReplies(t, m, s, v)
	}
	m.Close()
	for _, c := range []string{"getValue", "getAspectValues"} {
		_, _, gerr := s.AppendResults(nil, c, []wire.Value{wire.String("Same")})
		_, ierr := s.Invoke(c, []wire.Value{wire.String("Same")})
		if gerr == nil || ierr == nil || gerr.Error() != ierr.Error() || !strings.Contains(gerr.Error(), "closed") {
			t.Fatalf("%s on a closed monitor: written %v, Invoke %v", c, gerr, ierr)
		}
	}
}

// FuzzServantReplies is checkReplies over any value the wire can carry.
func FuzzServantReplies(f *testing.F) {
	for _, v := range replyCorpus() {
		b, err := wire.EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	m, s := newReplyMonitor(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, err := wire.DecodeValue(b); err == nil {
			checkReplies(t, m, s, v)
		}
	})
}

// TestAllocGuardGetValue pins what a getValue round trip over the
// in-process transport allocates, client and server together, for a load
// triple: the reply message and the table decoded into it. The servant
// writes the value into the reply frame from the script table, with no
// result slice and no wire.Table (4 before).
func TestAllocGuardGetValue(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	m, s := newReplyMonitor(t)
	if err := m.SetValue(wire.TableVal(wire.NewList(wire.Number(1), wire.Number(5), wire.Number(15)))); err != nil {
		t.Fatal(err)
	}
	nw := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: nw, Address: "mon-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("monitor/LoadAvg", "", s)
	client := orb.NewClient(nw)
	defer client.Close()
	ctx := context.Background()
	if _, err := client.Invoke(ctx, ref, "getValue"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if rs, err := client.Invoke(ctx, ref, "getValue"); err != nil || len(rs) != 1 {
			t.Fatalf("getValue: %v, %v", rs, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("getValue round trip: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestAllocGuardSetValue pins what a pushed sample costs a monitor shaped
// like the repository benchmark's: two aspects (Fig. 3's Increasing and
// Load1) and one push observer. The three evaluations share one argument
// array, held under the monitor's lock; each had its own before (14). The
// delivery outcomes live on the stack (11 while they took a slice each).
// The fired sample is encoded from the script list into the event (10
// while it became a wire.Table, and the event a slice of wire values,
// first). The sink takes encoded events, as the ORB's do.
func TestAllocGuardSetValue(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	m, err := New(Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineAspect(Load1Aspect, Load1AspectSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachPushObserver("overload", LoadIncreasePredicateSrc(50), dropSink{}); err != nil {
		t.Fatal(err)
	}
	loads := []wire.Value{
		wire.TableVal(wire.NewList(wire.Number(60), wire.Number(40), wire.Number(30))),
		wire.TableVal(wire.NewList(wire.Number(70), wire.Number(50), wire.Number(40))),
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if err := m.SetValue(loads[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	const want = 8
	if allocs > want {
		t.Fatalf("SetValue with one push observer: %.1f allocs/op, want <= %d", allocs, want)
	}
	t.Logf("%.1f allocs/op", allocs)
}
