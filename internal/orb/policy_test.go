package orb

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the retry delay: base·2^(n−1) after the n-th
// failed attempt, capped at 1 s, with a base of 10 ms when none is set.
func TestBackoffSchedule(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		base time.Duration
		want []time.Duration // after attempts 1, 2, 3, …
	}{
		{0, []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 640 * ms, time.Second, time.Second}},
		{30 * ms, []time.Duration{30 * ms, 60 * ms, 120 * ms, 240 * ms, 480 * ms, 960 * ms, time.Second}},
		{ms, []time.Duration{ms, 2 * ms, 4 * ms, 8 * ms}},
		{2 * time.Second, []time.Duration{time.Second, time.Second}},
	}
	for _, c := range cases {
		p := RetryPolicy{BaseBackoff: c.base}
		for i, want := range c.want {
			if got := p.backoff(i + 1); got != want {
				t.Errorf("base %v: backoff after attempt %d = %v, want %v", c.base, i+1, got, want)
			}
		}
		if got := p.backoff(0); got != c.want[0] {
			t.Errorf("base %v: backoff after attempt 0 = %v, want the first delay %v", c.base, got, c.want[0])
		}
	}
}

// TestBackoffJitterBounds checks that jitter spreads each delay over
// ±Jitter of the schedule's value, and that a jitter above 1 counts as 1.
func TestBackoffJitterBounds(t *testing.T) {
	for _, j := range []float64{0.2, 0.5, 3} {
		p := RetryPolicy{BaseBackoff: 20 * time.Millisecond, Jitter: j}
		frac := min(j, 1)
		for attempt := 1; attempt <= 8; attempt++ {
			d := float64(RetryPolicy{BaseBackoff: p.BaseBackoff}.backoff(attempt))
			lo, hi := time.Duration(d*(1-frac)), time.Duration(d*(1+frac))
			for range 200 {
				if got := p.backoff(attempt); got < lo || got > hi {
					t.Fatalf("jitter %v, attempt %d: backoff %v outside [%v, %v]", j, attempt, got, lo, hi)
				}
			}
		}
	}
}
