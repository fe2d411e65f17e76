package monitor

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"autoadapt/internal/script"
	"autoadapt/internal/wire"
)

// dropSink accepts and discards every pushed event, encoded as the ORB's
// sinks take them or not.
type dropSink struct{}

func (dropSink) Push(...wire.Value) error      { return nil }
func (dropSink) PushEncoded(int, []byte) error { return nil }

// aspectValues is AppendValues decoded: the values in the order named.
func aspectValues(m *Monitor, names ...string) ([]wire.Value, error) {
	b, err := m.AppendValues(nil, names...)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(b)
	vs := make([]wire.Value, len(names))
	for i := range vs {
		if vs[i], err = d.Value(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// TestAspectValuesReadOneSample: while one goroutine feeds new values and
// another ticks, every AppendValues answer is the value and the aspects
// computed from that very value. (A push observer is attached so that
// SetValue recomputes the aspects under the same hold of the lock, as a
// Tick does.) Run under -race.
func TestAspectValuesReadOneSample(t *testing.T) {
	m, err := New(Options{Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for name, src := range map[string]string{
		"Same":   `function(self, v, mon) return v end`,
		"Double": `function(self, v, mon) return v * 2 end`,
	} {
		if err := m.DefineAspect(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AttachPushObserver("never", `function() return false end`, dropSink{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(wire.Int(0)); err != nil {
		t.Fatal(err)
	}

	const samples = 2000
	var writers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 1; i <= samples; i++ {
			if err := m.SetValue(wire.Int(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Tick(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	last := -1.0
	for last < samples {
		vs, err := aspectValues(m, "Double", "", "Same")
		if err != nil {
			t.Fatal(err)
		}
		v := vs[1].Num()
		if len(vs) != 3 || vs[2].Num() != v || vs[0].Num() != 2*v {
			t.Fatalf("AppendValues(Double, value, Same) = %v: not one sample", vs)
		}
		if v < last {
			t.Fatalf("value went back from %v to %v", last, v)
		}
		last = v
	}
	close(stop)
	writers.Wait()
}

func TestAspectValuesErrors(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DefineAspect("A", `function(self, v, mon) return 1 end`); err != nil {
		t.Fatal(err)
	}
	// One undefined name fails the call: a caller wanting the rest asks
	// name by name.
	if _, err := aspectValues(m, "A", "missing"); !errors.Is(err, ErrNoSuchAspect) {
		t.Fatalf("AppendValues with an undefined aspect: %v", err)
	}
	if vs, err := aspectValues(m); err != nil || len(vs) != 0 {
		t.Fatalf("AppendValues() = %v, %v", vs, err)
	}
	m.Close()
	if _, err := aspectValues(m, "A"); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendValues on a closed monitor: %v", err)
	}
}

// TestAspectsAndObserversStayOrdered: aspects are kept by name and
// observers by id whatever order they arrive and leave in, which is the
// order every sample evaluates them in.
func TestAspectsAndObserversStayOrdered(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var order []string
	m.in.SetGlobal("note", script.Func("note", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		order = append(order, args[0].Str())
		return nil, nil
	}))
	for _, name := range []string{"m", "b", "z", "a", "m"} { // "m" is redefined in place
		if err := m.DefineAspect(name, `function(self, v, mon) note("`+name+`") end`); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.DefinedAspects(); !slices.Equal(got, []string{"a", "b", "m", "z"}) {
		t.Fatalf("DefinedAspects = %v", got)
	}
	var ids []int
	for _, ev := range []string{"e1", "e2", "e3", "e4"} {
		id, err := m.AttachObserver(wire.ObjRef{}, ev, `function() note("`+ev+`") end`)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m.DetachObserver(ids[1])
	m.DetachObserver(ids[1]) // unknown by now: ignored
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "m", "z", "e1", "e3", "e4"}; !slices.Equal(order, want) {
		t.Fatalf("evaluation order %v, want %v", order, want)
	}
}
