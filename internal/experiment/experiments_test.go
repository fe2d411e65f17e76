package experiment

import (
	"testing"
	"time"
)

func TestEventVsPollingShape(t *testing.T) {
	cfg := EventVsPollingConfig{
		Duration:   20 * time.Minute,
		TickPeriod: 10 * time.Second,
		Threshold:  50,
		PollEvery:  []time.Duration{5 * time.Second, time.Minute},
	}
	rs, err := EventVsPolling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]EventVsPollingResult{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	ev, push := byMode["event"], byMode["push"]
	fast, slow := byMode["poll-5s"], byMode["poll-1m0s"]

	t.Logf("event=%+v push=%+v fast=%+v slow=%+v", ev, push, fast, slow)

	// The paper's claim (§III): moving event detection to the monitor
	// reduces interactions. The event mode must beat value-pushing (A3)
	// and fast polling.
	if !(ev.Interactions < push.Interactions) {
		t.Errorf("event interactions %d !< push %d", ev.Interactions, push.Interactions)
	}
	if !(ev.Interactions < fast.Interactions) {
		t.Errorf("event interactions %d !< poll-5s %d", ev.Interactions, fast.Interactions)
	}
	// Event mode detects every condition tick with zero latency.
	if ev.Detections != ev.TrueTicks {
		t.Errorf("event detections %d != condition ticks %d", ev.Detections, ev.TrueTicks)
	}
	if ev.MeanLatencySec != 0 {
		t.Errorf("event latency = %v, want 0", ev.MeanLatencySec)
	}
	// Slow polling misses detections and adds latency (the crossover the
	// paper implies: polling must be as fast as the update period to match
	// event mode, at which point it costs strictly more messages).
	if !(slow.Detections < ev.Detections) {
		t.Errorf("slow polling detections %d !< event %d", slow.Detections, ev.Detections)
	}
	if !(slow.MeanLatencySec > 0) {
		t.Errorf("slow polling latency = %v, want > 0", slow.MeanLatencySec)
	}
	// And the table renders.
	table, _, err := EventVsPollingTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.Render())
}

func TestPostponedVsImmediateShape(t *testing.T) {
	cfg := PostponeConfig{Events: 15}
	rs, err := PostponedVsImmediate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]PostponeResult{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	post, imm := byMode["postponed"], byMode["immediate"]
	t.Logf("postponed=%+v immediate=%+v", post, imm)

	// The design claim (§IV-A): postponement avoids reconfigurations that
	// overlap in-flight traffic.
	if post.OverlappedReconfigs != 0 {
		t.Errorf("postponed mode overlapped %d reconfigs, want 0", post.OverlappedReconfigs)
	}
	if imm.OverlappedReconfigs == 0 {
		t.Errorf("immediate mode overlapped 0 reconfigs, expected some")
	}
	if post.StrategyRuns == 0 || imm.StrategyRuns == 0 {
		t.Errorf("strategies did not run: %d/%d", post.StrategyRuns, imm.StrategyRuns)
	}
	table, _, err := PostponeTable(PostponeConfig{Events: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.Render())
}

func TestRelaxedRequeryShape(t *testing.T) {
	cfg := RelaxConfig{Servers: 3, OverloadTicks: 6, ReliefTicks: 6, Threshold: 3}
	rs, err := RelaxedRequery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RelaxResult{}
	for _, r := range rs {
		byName[r.Strategy] = r
	}
	strict, relax := byName["strict"], byName["relax"]
	t.Logf("strict=%+v relax=%+v", strict, relax)

	// Strict keeps paying queries during the overload; Fig. 7's relaxation
	// silences the watch after the first failure.
	if !(relax.QueriesOverload < strict.QueriesOverload) {
		t.Errorf("relax queries %d !< strict %d during overload",
			relax.QueriesOverload, strict.QueriesOverload)
	}
	// Strict recovers promptly once a server frees; relax stays put (its
	// relaxed watch no longer fires).
	if strict.RecoveredAtTick < 0 {
		t.Error("strict strategy never recovered after relief")
	}
	if relax.RecoveredAtTick >= 0 {
		t.Errorf("relax strategy recovered at tick %d; expected to stay (that is its trade-off)",
			relax.RecoveredAtTick)
	}
	table, _, err := RelaxTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.Render())
}

func TestMetrics(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty input should yield 0")
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := MaxOverMean(xs); got != 4/2.5 {
		t.Fatalf("MaxOverMean = %v", got)
	}
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("CoV(uniform) = %v", got)
	}
	if CoV(nil) != 0 || MaxOverMean(nil) != 0 {
		t.Fatal("empty CoV/MaxOverMean should be 0")
	}
	if got := StdDev([]float64{2, 4}); got != 1 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "a", "bb")
	tb.AddRow("x")
	tb.AddRow("longer", "y", "dropped")
	out := tb.Render()
	if out == "" || len(tb.rows) != 2 {
		t.Fatalf("render/rows broken: %q", out)
	}
	if tb.rows[1][1] != "y" {
		t.Fatalf("rows = %v", tb.rows)
	}
	if F(1.23456) != "1.235" || Ms(0.0015) != "1.5ms" || I(7) != "7" {
		t.Fatal("format helpers wrong")
	}
}

func TestStalenessShape(t *testing.T) {
	cfg := StalenessConfig{Duration: 6 * time.Minute}
	rs, err := Staleness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]StalenessResult{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	dyn := byMode["dynamic"]
	slow := byMode["snapshot-1m0s"]
	t.Logf("dynamic=%+v slow=%+v", dyn, slow)

	// Dynamic properties never misselect: every query sees true loads.
	if dyn.Misselections != 0 || dyn.EmptyResults != 0 {
		t.Errorf("dynamic mode misselected: %+v", dyn)
	}
	// Stale snapshots misselect and also return false empties.
	if slow.Misselections == 0 {
		t.Errorf("slow snapshots never misselected: %+v", slow)
	}
	table, _, err := StalenessTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.Render())
}
