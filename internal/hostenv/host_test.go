package hostenv

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"autoadapt/internal/clock"
)

var epoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

func newSimHost(name string) (*Host, *clock.Sim) {
	sim := clock.NewSim(epoch)
	h := New(Options{Name: name, Clock: sim})
	return h, sim
}

func TestLoadAvgStartsAtZero(t *testing.T) {
	h, _ := newSimHost("h")
	defer h.Close()
	one, five, fifteen, err := h.LoadAvg()
	if err != nil || one != 0 || five != 0 || fifteen != 0 {
		t.Fatalf("initial loadavg = %v %v %v, %v", one, five, fifteen, err)
	}
}

func TestLoadAvgConvergesToRunnable(t *testing.T) {
	h, _ := newSimHost("h")
	defer h.Close()
	h.SetBackground(4)
	// After many samples, each average converges to the runnable count.
	for i := 0; i < 3000; i++ {
		h.Sample()
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
	h, _ := newSimHost("h")
	defer h.Close()
	h.SetBackground(5)
	for i := 0; i < 12; i++ { // one minute of samples
		h.Sample()
	}
	one, five, _, _ := h.LoadAvg()
	if !(one > five) {
		t.Fatalf("rising load should show load1 (%v) > load5 (%v)", one, five)
	}
	// Let both averages converge near 5, then remove the load; on the way
	// down the fast average drops below the slow one.
	for i := 0; i < 180; i++ {
		h.Sample()
	}
	h.SetBackground(0)
	for i := 0; i < 24; i++ { // two minutes of decay
		h.Sample()
	}
	one, five, _, _ = h.LoadAvg()
	if !(one < five) {
		t.Fatalf("falling load should show load1 (%v) < load5 (%v)", one, five)
	}
}

func TestKernelDampingFormula(t *testing.T) {
	// One step from zero with n runnable must equal n·(1−e^(−5/60)).
	h, _ := newSimHost("h")
	defer h.Close()
	h.SetBackground(3)
	h.Sample()
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
		h, _ := newSimHost("p")
		defer h.Close()
		h.SetBackground(n)
		prev := 0.0
		for i := 0; i < steps; i++ {
			h.Sample()
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

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeOnClosedHost: Close is idempotent and only stops the sampler; a
// closed host still accounts the work it is given.
func TestServeOnClosedHost(t *testing.T) {
	h, _ := newSimHost("h")
	h.Close()
	h.Close() // idempotent
	if d := h.RecordWork(time.Millisecond); d != time.Millisecond || h.Served() != 1 {
		t.Fatalf("RecordWork on a closed host = %v, served %d", d, h.Served())
	}
}

func TestAutoSampleLoop(t *testing.T) {
	sim := clock.NewSim(epoch)
	h := New(Options{Name: "auto", Clock: sim, AutoSample: true})
	defer h.Close()
	h.SetBackground(2)
	// Wait for the sampler to arm, then advance a minute.
	waitUntil(t, func() bool { return sim.PendingTimers() > 0 })
	for i := 0; i < 12; i++ {
		sim.Advance(SamplePeriod)
		waitUntil(t, func() bool { return sim.PendingTimers() > 0 })
	}
	one, _, _, _ := h.LoadAvg()
	if one <= 0.5 {
		t.Fatalf("auto-sampled load1 = %v, want > 0.5 after a minute at load 2", one)
	}
}

// TestStatsAndReset: the served and busy counters accumulate, busy time
// counted dilated; sampling a window resets the window's demand and leaves
// the counters alone.
func TestStatsAndReset(t *testing.T) {
	h, _ := newSimHost("h")
	defer h.Close()
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
	h, _ := newSimHost("h")
	defer h.Close()
	h.SetBackground(-5)
	if h.bg != 0 {
		t.Fatalf("background = %v, want 0", h.bg)
	}
}

func TestDefaultCapacityAndName(t *testing.T) {
	h := New(Options{Name: "named", Clock: clock.NewSim(epoch)})
	defer h.Close()
	if h.Name() != "named" {
		t.Fatalf("Name = %q", h.Name())
	}
}
