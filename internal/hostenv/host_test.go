package hostenv

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestLoadAvgStartsAtZero(t *testing.T) {
	h := New("h")
	one, five, fifteen, err := h.LoadAvg()
	if err != nil || one != 0 || five != 0 || fifteen != 0 {
		t.Fatalf("initial loadavg = %v %v %v, %v", one, five, fifteen, err)
	}
}

func TestLoadAvgConvergesToRunnable(t *testing.T) {
	h := New("h")
	h.SetBackground(4)
	// After many samples, each average converges to the runnable count.
	for i := 0; i < 3000; i++ {
		h.SampleWindow(SamplePeriod)
	}
	one, five, fifteen, _ := h.LoadAvg()
	for _, v := range []float64{one, five, fifteen} {
		if math.Abs(v-4) > 0.05 {
			t.Fatalf("load averages did not converge: %v %v %v", one, five, fifteen)
		}
	}
}

func TestOneMinuteAverageLeadsFiveMinute(t *testing.T) {
	// The paper's "Increasing" aspect relies on load1 > load5 while load
	// rises; verify the kernel-style damping yields that signature.
	h := New("h")
	h.SetBackground(5)
	for i := 0; i < 12; i++ { // one minute of samples
		h.SampleWindow(SamplePeriod)
	}
	one, five, _, _ := h.LoadAvg()
	if !(one > five) {
		t.Fatalf("rising load should show load1 (%v) > load5 (%v)", one, five)
	}
	// Let both averages converge near 5, then remove the load; on the way
	// down the fast average drops below the slow one.
	for i := 0; i < 180; i++ {
		h.SampleWindow(SamplePeriod)
	}
	h.SetBackground(0)
	for i := 0; i < 24; i++ { // two minutes of decay
		h.SampleWindow(SamplePeriod)
	}
	one, five, _, _ = h.LoadAvg()
	if !(one < five) {
		t.Fatalf("falling load should show load1 (%v) < load5 (%v)", one, five)
	}
}

func TestKernelDampingFormula(t *testing.T) {
	// One step from zero with n runnable must equal n·(1−e^(−5/60)).
	h := New("h")
	h.SetBackground(3)
	h.SampleWindow(SamplePeriod)
	one, _, _, _ := h.LoadAvg()
	want := 3 * (1 - math.Exp(-5.0/60.0))
	if math.Abs(one-want) > 1e-9 {
		t.Fatalf("load1 after one sample = %v, want %v", one, want)
	}
}

func TestPropertyDampingMonotoneAndBounded(t *testing.T) {
	// Property: for constant runnable load n, every sample moves each
	// average strictly toward n and never overshoots.
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(float64(r.Intn(20)))
			args[1] = reflect.ValueOf(r.Intn(200) + 1)
		},
	}
	prop := func(n float64, steps int) bool {
		h := New("p")
		h.SetBackground(n)
		prev := 0.0
		for i := 0; i < steps; i++ {
			h.SampleWindow(SamplePeriod)
			one, _, _, _ := h.LoadAvg()
			if one > n+1e-9 { // never overshoots
				return false
			}
			if n > 0 && one < prev-1e-9 { // monotone non-decreasing
				return false
			}
			prev = one
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestServeOnClosedHost: a host accounts the work it is given.
func TestServeOnClosedHost(t *testing.T) {
	h := New("h")
	if d := h.RecordWork(time.Millisecond); d != time.Millisecond || h.Served() != 1 {
		t.Fatalf("RecordWork = %v, served %d", d, h.Served())
	}
}

// TestStatsAndReset: the served and busy counters accumulate, busy time
// counted dilated; sampling a window resets the window's demand and leaves
// the counters alone.
func TestStatsAndReset(t *testing.T) {
	h := New("h")
	h.SetBackground(2)
	h.RecordWork(10 * time.Millisecond)
	h.RecordWork(10 * time.Millisecond)
	if h.Served() != 2 || h.BusyTime() != 40*time.Millisecond || h.windowWork != 20*time.Millisecond {
		t.Fatalf("served=%d busy=%v window=%v, want 2, 40ms, 20ms", h.Served(), h.BusyTime(), h.windowWork)
	}
	h.SampleWindow(SamplePeriod)
	if h.Served() != 2 || h.BusyTime() != 40*time.Millisecond || h.windowWork != 0 {
		t.Fatalf("after sampling: served=%d busy=%v window=%v", h.Served(), h.BusyTime(), h.windowWork)
	}
}

func TestNegativeBackgroundClamped(t *testing.T) {
	h := New("h")
	h.SetBackground(-5)
	if h.bg != 0 {
		t.Fatalf("background = %v, want 0", h.bg)
	}
}

func TestDefaultCapacityAndName(t *testing.T) {
	h := New("named")
	if h.Name() != "named" {
		t.Fatalf("Name = %q", h.Name())
	}
}
