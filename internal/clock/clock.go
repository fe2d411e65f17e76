// Package clock provides an injectable time source.
//
// The components whose timing the paper's experiments replay take a Clock:
// monitors (sampling periods and event timestamps), the trader's leases,
// the sharded router, the agent, the host environment and the script
// interpreter's time-of-day context. Production code uses Real; experiments
// and tests use Sim, a deterministic simulated clock whose timers fire only
// when the test advances time. This is the substitution described in
// DESIGN.md §2.5: the paper's experiments run over minutes of wall-clock time
// on real hosts, and the simulated clock lets the same component code replay
// those minutes in milliseconds, deterministically.
//
// The ORB does not take a Clock. Its deadlines, write timeouts, retry
// backoff, batch windows, inline-dispatch watchdog and the in-process
// conn's timers call the time package directly, on wall time (a breaker's
// cooldown alone takes an injected Now). Tests that need the ORB's timing
// to be deterministic run it in a testing/synctest bubble instead.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is a source of time and timers.
type Clock interface {
	// Now reports the current instant.
	Now() time.Time
	// After returns a channel on which the current time is delivered once,
	// d after the call. The returned stop function releases the timer early;
	// it reports whether the timer was stopped before firing.
	After(d time.Duration) (<-chan time.Time, func() bool)
}

// Real is a Clock backed by the system clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Every runs fn every interval on c until the returned stop function is
// called. The first timer is armed before Every returns, so a caller driving
// a Sim can Advance immediately afterwards; each later one is armed when fn
// returns. stop is idempotent, blocks until the loop has exited, and leaves
// no timer pending. interval must be positive.
func Every(c Clock, interval time.Duration, fn func()) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	tick, cancel := c.After(interval)
	go func() {
		defer close(done)
		for {
			select {
			case <-tick:
				fn()
			case <-stopCh:
				cancel()
				return
			}
			tick, cancel = c.After(interval)
		}
	}()
	return sync.OnceFunc(func() {
		close(stopCh)
		<-done
	})
}

// Sim is a deterministic simulated clock. Time advances only through Advance
// or AdvanceTo. Timers created with After fire, in timestamp order, while
// time passes. Sim is safe for concurrent use.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	timers  timerHeap
	nextSeq int64
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock set to start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

type simTimer struct {
	when    time.Time
	seq     int64 // tiebreaker preserving creation order
	ch      chan time.Time
	stopped bool
	index   int
}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock. The timer fires when simulated time reaches
// Now()+d. A non-positive d fires at the current instant on the next Advance
// (or immediately within the same Advance that created it, if created from a
// goroutine released by that Advance).
func (s *Sim) After(d time.Duration) (<-chan time.Time, func() bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &simTimer{
		when: s.now.Add(d),
		seq:  s.nextSeq,
		ch:   make(chan time.Time, 1),
	}
	s.nextSeq++
	if d <= 0 {
		t.ch <- s.now
		return t.ch, func() bool { return false }
	}
	heap.Push(&s.timers, t)
	stop := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if t.stopped || t.index < 0 {
			return false
		}
		t.stopped = true
		heap.Remove(&s.timers, t.index)
		t.index = -1
		return true
	}
	return t.ch, stop
}

// Sleep blocks until simulated time has advanced by d (driven by another
// goroutine calling Advance).
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch, _ := s.After(d)
	<-ch
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls within the window, in deadline order. Timer channels are
// buffered, so receivers need not be ready.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.AdvanceToLocked(s.now.Add(d))
}

// AdvanceTo moves simulated time forward to t, firing intervening timers.
// Moving backwards is a no-op.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.AdvanceToLocked(t)
}

// AdvanceToLocked advances with s.mu held; it releases the lock before
// returning. It exists so Advance and AdvanceTo share one implementation.
func (s *Sim) AdvanceToLocked(target time.Time) {
	for len(s.timers) > 0 && !s.timers[0].when.After(target) {
		t := heap.Pop(&s.timers).(*simTimer)
		t.index = -1
		if s.now.Before(t.when) {
			s.now = t.when
		}
		t.ch <- t.when
	}
	if s.now.Before(target) {
		s.now = target
	}
	s.mu.Unlock()
}

// PendingTimers reports how many unfired timers exist. Useful in tests that
// assert clean shutdown.
func (s *Sim) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// NextDeadline reports the deadline of the earliest pending timer, and
// whether one exists. Experiment drivers use it to step time efficiently.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.timers) == 0 {
		return time.Time{}, false
	}
	return s.timers[0].when, true
}

// RunUntil repeatedly advances to the next timer deadline until no timer
// remains with a deadline at or before end, then advances to end. It is the
// main loop of simulated experiments.
func (s *Sim) RunUntil(end time.Time) {
	for {
		next, ok := s.NextDeadline()
		if !ok || next.After(end) {
			s.AdvanceTo(end)
			return
		}
		s.AdvanceTo(next)
	}
}
