package hostenv

import (
	"math"
	"testing"
	"time"
)

func TestRecordWorkDilatesAndAccounts(t *testing.T) {
	h, _ := newSimHost("w")
	defer h.Close()
	// Idle host: no dilation.
	d := h.RecordWork(100 * time.Millisecond)
	if d != 100*time.Millisecond {
		t.Fatalf("idle dilated = %v", d)
	}
	if h.Served() != 1 || h.BusyTime() != 100*time.Millisecond {
		t.Fatalf("served=%d busy=%v", h.Served(), h.BusyTime())
	}
	// Background load dilates subsequent work.
	h.SetBackground(4)
	d = h.RecordWork(100 * time.Millisecond)
	if d != 400*time.Millisecond { // (4 bg + 0 rho + 0 active)/1 cpu = 4x
		t.Fatalf("loaded dilated = %v, want 400ms", d)
	}
}

// dilation reads h's current service-time dilation factor.
func dilation(h *Host) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dilationLocked()
}

func TestDilationIncludesPreviousWindowUtilization(t *testing.T) {
	h, _ := newSimHost("w")
	defer h.Close()
	// Deposit 2.5s of demand into a 5s window: utilization 0.5.
	h.RecordWork(2500 * time.Millisecond)
	h.SampleWindow(5 * time.Second)
	if got := h.lastRho; got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := dilation(h); got != 1 { // 0.5 < 1 cpu → no dilation
		t.Fatalf("dilation = %v, want 1", got)
	}
	// Overload: 10s of demand in 5s → utilization 2 → dilation 2.
	h.RecordWork(10 * time.Second)
	h.SampleWindow(5 * time.Second)
	if got := dilation(h); got != 2 {
		t.Fatalf("dilation = %v, want 2", got)
	}
}

func TestSampleWindowFeedsLoadAverages(t *testing.T) {
	h, _ := newSimHost("w")
	defer h.Close()
	// One window of full utilization: load1 takes one kernel step toward 1.
	h.RecordWork(5 * time.Second)
	h.SampleWindow(5 * time.Second)
	one, _, _, _ := h.LoadAvg()
	want := 1 * (1 - math.Exp(-5.0/60.0))
	if math.Abs(one-want) > 1e-9 {
		t.Fatalf("load1 = %v, want %v", one, want)
	}
	// The window resets: an idle window decays the average.
	h.SampleWindow(5 * time.Second)
	two, _, _, _ := h.LoadAvg()
	if !(two < one) {
		t.Fatalf("load1 did not decay: %v -> %v", one, two)
	}
}

func TestSampleWindowDefaultPeriod(t *testing.T) {
	h, _ := newSimHost("w")
	defer h.Close()
	h.SetBackground(1)
	h.SampleWindow(0) // defaults to SamplePeriod
	one, _, _, _ := h.LoadAvg()
	if one == 0 {
		t.Fatal("default-period sample had no effect")
	}
}

func TestSetLoadAvgDirect(t *testing.T) {
	h, _ := newSimHost("w")
	defer h.Close()
	h.SetLoadAvg(1.5, 2.5, 3.5)
	one, five, fifteen, err := h.LoadAvg()
	if err != nil || one != 1.5 || five != 2.5 || fifteen != 3.5 {
		t.Fatalf("SetLoadAvg round trip = %v %v %v, %v", one, five, fifteen, err)
	}
}

func TestCapacityDividesDilation(t *testing.T) {
	h := New(Options{Name: "smp", Capacity: 4})
	defer h.Close()
	h.SetBackground(4)
	// 4 runnable on 4 CPUs: no dilation.
	if got := dilation(h); got != 1 {
		t.Fatalf("dilation on 4-cpu host = %v, want 1", got)
	}
	h.SetBackground(8)
	if got := dilation(h); got != 2 {
		t.Fatalf("dilation = %v, want 2", got)
	}
}
