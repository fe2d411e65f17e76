package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

func TestRealNow(t *testing.T) {
	var c Real
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want within [%v, %v]", got, before, after)
	}
}

func TestRealAfterFires(t *testing.T) {
	var c Real
	ch, stop := c.After(time.Millisecond)
	defer stop()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.After(1ms) did not fire within 5s")
	}
}

func TestRealAfterStop(t *testing.T) {
	var c Real
	_, stop := c.After(time.Hour)
	if !stop() {
		t.Fatal("stop() on a pending real timer returned false")
	}
}

func TestSimNowAndAdvance(t *testing.T) {
	s := NewSim(epoch)
	if got := s.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	s.Advance(90 * time.Second)
	if got, want := s.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("after Advance: Now() = %v, want %v", got, want)
	}
}

func TestSimAdvanceToBackwardsIsNoop(t *testing.T) {
	s := NewSim(epoch)
	s.Advance(time.Minute)
	s.AdvanceTo(epoch)
	if got, want := s.Now(), epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v (backwards AdvanceTo must not rewind)", got, want)
	}
}

func TestSimTimerFiresAtDeadline(t *testing.T) {
	s := NewSim(epoch)
	ch, _ := s.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before time advanced")
	default:
	}
	s.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired 1s early")
	default:
	}
	s.Advance(time.Second)
	select {
	case at := <-ch:
		if want := epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("timer delivered %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestSimTimersFireInDeadlineOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	delays := []time.Duration{5 * time.Second, 1 * time.Second, 3 * time.Second}
	for i, d := range delays {
		ch, _ := s.After(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
	}
	// Advance one deadline at a time so goroutine completion order is
	// observable: each Advance fires exactly one timer.
	for step := 1; step <= len(delays); step++ {
		next, ok := s.NextDeadline()
		if !ok {
			t.Fatal("expected a pending timer")
		}
		s.AdvanceTo(next)
		// Wait for the released goroutine to record itself before firing
		// the next timer, otherwise scheduling order is nondeterministic.
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n >= step {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("timer goroutine did not run")
			}
		}
	}
	wg.Wait()
	want := []int{1, 2, 0} // delays sorted: 1s (idx 1), 3s (idx 2), 5s (idx 0)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimSameDeadlineFiresInCreationOrder(t *testing.T) {
	s := NewSim(epoch)
	ch1, _ := s.After(time.Second)
	ch2, _ := s.After(time.Second)
	s.Advance(time.Second)
	// Both buffered channels now hold a value; heap order guaranteed first
	// was pushed first. Verify both fired.
	select {
	case <-ch1:
	default:
		t.Fatal("first timer did not fire")
	}
	select {
	case <-ch2:
	default:
		t.Fatal("second timer did not fire")
	}
}

func TestSimStopPreventsFiring(t *testing.T) {
	s := NewSim(epoch)
	ch, stop := s.After(time.Second)
	if !stop() {
		t.Fatal("stop() = false on pending timer")
	}
	if stop() {
		t.Fatal("second stop() = true, want false")
	}
	s.Advance(2 * time.Second)
	select {
	case <-ch:
		t.Fatal("stopped timer fired")
	default:
	}
	if n := s.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers() = %d, want 0", n)
	}
}

func TestSimNonPositiveAfterFiresImmediately(t *testing.T) {
	s := NewSim(epoch)
	ch, stop := s.After(0)
	select {
	case <-ch:
	default:
		t.Fatal("After(0) did not deliver immediately")
	}
	if stop() {
		t.Fatal("stop() on already-fired timer = true")
	}
}

func TestSimSleepUnblocksOnAdvance(t *testing.T) {
	s := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		s.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait until the sleeper has registered its timer.
	deadline := time.Now().Add(5 * time.Second)
	for s.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never registered a timer")
		}
	}
	s.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestSimSleepZeroReturnsImmediately(t *testing.T) {
	s := NewSim(epoch)
	s.Sleep(0)
	s.Sleep(-time.Second)
}

func TestSimNextDeadline(t *testing.T) {
	s := NewSim(epoch)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("NextDeadline() reported a timer on an empty clock")
	}
	s.After(3 * time.Second)
	s.After(time.Second)
	got, ok := s.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline() = ok=false, want a deadline")
	}
	if want := epoch.Add(time.Second); !got.Equal(want) {
		t.Fatalf("NextDeadline() = %v, want %v", got, want)
	}
}

func TestSimRunUntilDrainsTimers(t *testing.T) {
	s := NewSim(epoch)
	var fired int
	var mu sync.Mutex
	for i := 1; i <= 5; i++ {
		ch, _ := s.After(time.Duration(i) * time.Second)
		go func() {
			<-ch
			mu.Lock()
			fired++
			mu.Unlock()
		}()
	}
	s.RunUntil(epoch.Add(time.Minute))
	if got, want := s.Now(), epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if n := s.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers() = %d, want 0", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := fired
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fired = %d, want 5", n)
		}
	}
}

func TestSimConcurrentAfterAndAdvance(t *testing.T) {
	s := NewSim(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		ch, _ := s.After(time.Duration(i%10+1) * time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	// Drive time forward until all timers are gone.
	deadline := time.Now().Add(10 * time.Second)
	end := epoch.Add(20 * time.Second)
	for {
		s.RunUntil(end)
		if s.PendingTimers() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timers never drained")
		}
		// Late registrations may land past end; keep extending.
		end = end.Add(20 * time.Second)
	}
	wg.Wait()
}

// waitPending polls until s has n pending timers: a loop re-arms its timer
// on its own goroutine, after the tick that released it.
func waitPending(t *testing.T, s *Sim, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.PendingTimers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending timers = %d, want %d", s.PendingTimers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEverySimClock(t *testing.T) {
	s := NewSim(epoch)
	ticks := make(chan time.Time, 8)
	stop := Every(s, time.Second, func() { ticks <- s.Now() })
	// The first timer is armed before Every returns.
	if n := s.PendingTimers(); n != 1 {
		t.Fatalf("pending timers after Every = %d, want 1", n)
	}
	for i := 1; i <= 3; i++ {
		s.Advance(time.Second)
		select {
		case got := <-ticks:
			if want := epoch.Add(time.Duration(i) * time.Second); !got.Equal(want) {
				t.Fatalf("tick %d ran at %v, want %v", i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d did not run", i)
		}
		waitPending(t, s, 1)
	}
	stop()
	stop() // idempotent
	if n := s.PendingTimers(); n != 0 {
		t.Fatalf("pending timers after stop = %d, want 0", n)
	}
	s.Advance(time.Minute)
	select {
	case got := <-ticks:
		t.Fatalf("fn ran after stop, at %v", got)
	default:
	}
}
