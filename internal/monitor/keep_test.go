package monitor

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// TestKeepServantArgs: every string arg the monitor servant keeps past its
// return arrives as a view into a pooled buffer when it is this long, so the
// servant keeps it with wire.Keep. Under -race a released buffer is
// poisoned, and a site without its Keep fails here; other builds check the
// same values without the poison.
func TestKeepServantArgs(t *testing.T) {
	long := func(prefix string) string { return prefix + strings.Repeat("x", 2048) }
	var mu sync.Mutex
	var notified []string
	m, err := New(Options{Name: "Load", Notifier: NotifierFunc(func(_ wire.ObjRef, eventID string) error {
		mu.Lock()
		notified = append(notified, eventID)
		mu.Unlock()
		return nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "keep-monitor"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("monitor", "", NewServant(m))
	client := orb.NewClient(n)
	defer client.Close()
	// call invokes op, then a small call, which the server reads after it
	// has released op's request: a view op's servant kept is poison by then.
	call := func(op string, args ...wire.Value) {
		t.Helper()
		for _, c := range []struct {
			op   string
			args []wire.Value
		}{{op, args}, {"name", nil}} {
			if _, err := client.Invoke(context.Background(), ref, c.op, c.args...); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
	}

	value := long("value")
	call("setValue", wire.String(value))
	if v, err := m.Value(); err != nil || v.Str() != value {
		t.Errorf("setValue kept %.16q..., %v", v.Str(), err)
	}

	aspect, result := long("aspect"), long("result")
	src := `function(self, currval, monitor) return "` + result + `" end`
	call("defineAspect", wire.String(aspect), wire.String(src))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if v, err := m.AspectValue(aspect); err != nil || v.Str() != result {
		t.Errorf("defineAspect: aspect %.16q... reads %.16q..., %v", aspect, v.Str(), err)
	}
	// The compile cache keeps a source to match it to the next one: the
	// same source again is a hit, a new one a parse.
	if hit, miss := mallocs(t, func() error { return m.DefineAspect(aspect, src) }),
		mallocs(t, func() error { return m.DefineAspect(aspect, src+" ") }); hit*2 > miss {
		t.Errorf("defineAspect: the cache lost the source: redefining allocates %d times, a new source %d", hit, miss)
	}

	event := long("event")
	pred := `function(observer, value, monitor) local pad = "` + long("pad") + `" return true end`
	call("attachEventObserver", wire.Ref(srv.RefFor("observer")), wire.String(event), wire.String(pred))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(notified) != 1 || notified[0] != event {
		t.Errorf("attachEventObserver: notified %d events, want 1 of %.16q...", len(notified), event)
	}
	mu.Unlock()
	attach := func(src string) func() error {
		return func() error { _, err := m.AttachObserver(srv.RefFor("observer"), event, src); return err }
	}
	if hit, miss := mallocs(t, attach(pred)), mallocs(t, attach(pred+" ")); hit*2 > miss {
		t.Errorf("attachEventObserver: the cache lost the predicate: attaching it again allocates %d times, a new one %d", hit, miss)
	}
}

// mallocs reports how many heap allocations f makes.
func mallocs(t *testing.T, f func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
