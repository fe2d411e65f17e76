package experiment

import (
	"testing"
	"time"

	"autoadapt/internal/strikes"
)

// E15 shape: under 2x offered load the governed server keeps goodput near
// capacity with bounded latency and a flat goroutine count; the
// ungoverned baseline queues up, blows deadlines, and spills goroutines.
func TestOverloadGovernedVsUngoverned(t *testing.T) {
	if testing.Short() {
		t.Skip("overload experiment runs real time")
	}
	cfg := OverloadConfig{
		Slots:         4,
		ServiceTime:   20 * time.Millisecond,
		LoadFactor:    2,
		Duration:      1200 * time.Millisecond,
		Deadline:      250 * time.Millisecond,
		MaxConcurrent: 8,
		MaxQueue:      8,
	}
	rs, err := Overload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gov, raw := rs[0], rs[1]
	t.Logf("governed:   %+v", gov)
	t.Logf("ungoverned: %+v", raw)

	// Acceptance: goodput within 15% of capacity at 2x offered load.
	if gov.Goodput < 0.85 {
		t.Errorf("governed goodput = %.2f, want >= 0.85 of capacity", gov.Goodput)
	}
	// Bounded latency: everything admitted finishes inside the deadline,
	// so the censored p99 sits strictly below it.
	if gov.P99Ms >= float64(cfg.Deadline/time.Millisecond) {
		t.Errorf("governed p99 = %.1fms, want < %v (no deadline misses)", gov.P99Ms, cfg.Deadline)
	}
	if gov.Missed > gov.Offered/50 {
		t.Errorf("governed deadline misses = %d of %d", gov.Missed, gov.Offered)
	}
	// The excess load was refused at admission, not absorbed.
	if gov.Shed == 0 || gov.Stats.ShedRequests == 0 {
		t.Errorf("governed shed = %d (stats %+v), want > 0", gov.Shed, gov.Stats)
	}
	// Flat goroutines: bounded by the pool, not the backlog.
	if gov.MaxGrowth > cfg.MaxConcurrent+24 {
		t.Errorf("governed goroutine growth = %d, want <= %d", gov.MaxGrowth, cfg.MaxConcurrent+24)
	}

	// The baseline admits everything and collapses: a growing backlog
	// pushes later requests past their deadline and spills goroutines.
	if raw.Missed < raw.Offered/4 {
		t.Errorf("ungoverned misses = %d of %d, expected collapse", raw.Missed, raw.Offered)
	}
	if raw.Goodput >= gov.Goodput {
		t.Errorf("ungoverned goodput %.2f >= governed %.2f", raw.Goodput, gov.Goodput)
	}
	if raw.MaxGrowth < gov.MaxGrowth*3 {
		t.Errorf("ungoverned goroutine growth = %d, governed = %d: expected spill",
			raw.MaxGrowth, gov.MaxGrowth)
	}
}

func TestHostileQuarantineLatency(t *testing.T) {
	ticks, err := HostileQuarantine(5000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hostile aspect quarantined after %d events", ticks)
	if ticks != strikes.Limit {
		t.Errorf("quarantine latency = %d events, want %d", ticks, strikes.Limit)
	}
}
