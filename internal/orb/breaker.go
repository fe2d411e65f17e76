package orb

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Per-endpoint circuit breaker.
//
// PR 1's retry/backoff layer makes invocations on a dead peer fail
// *slowly*: every call burns its full attempt/backoff budget before
// reporting the fault. The breaker adds the complementary fast path: after
// Threshold consecutive classified failures against one endpoint the
// circuit opens and further invocations fail immediately with
// ErrCircuitOpen — no dial, no backoff — until a cooldown elapses and a
// single half-open probe is allowed through to test the peer. A successful
// probe recloses the circuit; a failed one reopens it for another
// cooldown. A failover smart proxy treats ErrCircuitOpen like any other
// transport fault (re-select, rebind), but it learns about the dead peer
// in microseconds instead of after the retry budget.

// ErrCircuitOpen is returned (wrapped, with the endpoint) when an
// invocation is refused because the target endpoint's circuit breaker is
// open. It is never retried by RetryPolicy: the point is to fail fast.
var ErrCircuitOpen = errors.New("orb: circuit open")

// BreakerPolicy configures the per-endpoint circuit breakers of a Client.
// The zero value disables breaking entirely (every invocation is tried).
type BreakerPolicy struct {
	// Threshold is the number of consecutive strikes (see Fault) that
	// opens an endpoint's circuit. Values below 1 disable the breaker.
	Threshold int
	// Cooldown is how long an open circuit refuses invocations before
	// allowing a half-open probe. Default 1s.
	Cooldown time.Duration
}

// Enabled reports whether the policy arms breakers.
func (p BreakerPolicy) Enabled() bool { return p.Threshold > 0 }

func (p BreakerPolicy) cooldown() time.Duration {
	if p.Cooldown <= 0 {
		return time.Second
	}
	return p.Cooldown
}

// Breaker states.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// breaker is one endpoint's circuit state machine. now is injected so
// tests drive cooldowns with a simulated clock.
type breaker struct {
	policy BreakerPolicy
	now    func() time.Time
	// Transition counters, shared across the owning client's breakers.
	// The *metrics.Counter methods are nil-safe, so unmetered clients pay
	// nothing here.
	counters breakerCounters

	mu      sync.Mutex
	state   string
	fails   int       // consecutive classified failures while closed
	until   time.Time // open: when the cooldown ends
	probing bool      // half-open: a probe invocation is in flight
}

func newBreaker(policy BreakerPolicy, now func() time.Time) *breaker {
	return &breaker{policy: policy, now: now, state: BreakerClosed}
}

// allow decides whether an invocation may proceed. It returns probe=true
// when the invocation is the single half-open probe (its outcome decides
// the circuit), or an ErrCircuitOpen-wrapped error when the invocation
// must fail fast.
func (b *breaker) allow(endpoint string) (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if b.now().Before(b.until) {
			return false, fmt.Errorf("%w: endpoint %s cooling down", ErrCircuitOpen, endpoint)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, nil
	default: // half-open
		if b.probing {
			return false, fmt.Errorf("%w: endpoint %s probe in flight", ErrCircuitOpen, endpoint)
		}
		b.probing = true
		return true, nil
	}
}

// record applies one invocation outcome by its Fault: a reply proves the
// endpoint alive and recloses the circuit, a strike counts toward Threshold
// (or reopens a half-open circuit at once), and a neutral outcome releases a
// probe slot but leaves the state unchanged.
func (b *breaker) record(err error, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch FaultOf(err) {
	case NoFault, Answered, Expired:
		if b.state != BreakerClosed {
			b.counters.reclosed.Inc()
		}
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
	case Unreachable, Lost, Unknown:
		if probe || b.state == BreakerHalfOpen {
			b.trip()
			return
		}
		b.fails++
		if b.fails >= b.policy.Threshold {
			b.trip()
		}
	default:
		if probe {
			b.probing = false
		}
	}
}

// trip opens the circuit for one cooldown (called with b.mu held).
func (b *breaker) trip() {
	b.counters.opened.Inc()
	b.state = BreakerOpen
	b.until = b.now().Add(b.policy.cooldown())
	b.fails = 0
	b.probing = false
}

// snapshot returns the current state name (for diagnostics/tests).
func (b *breaker) snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerFor returns (creating on first use) the breaker guarding
// endpoint, or nil when breaking is disabled.
func (c *Client) breakerFor(endpoint string) *breaker {
	if !c.breakerPolicy.Enabled() {
		return nil
	}
	c.breakerMu.Lock()
	defer c.breakerMu.Unlock()
	b := c.breakers[endpoint]
	if b == nil {
		b = newBreaker(c.breakerPolicy, c.breakerNow)
		if c.metrics != nil {
			b.counters = *c.metrics.breakerCounters()
		}
		c.breakers[endpoint] = b
	}
	return b
}

// BreakerState reports the circuit state for endpoint: BreakerClosed,
// BreakerOpen, or BreakerHalfOpen. Endpoints never invoked (or clients
// without a breaker policy) report BreakerClosed.
func (c *Client) BreakerState(endpoint string) string {
	if !c.breakerPolicy.Enabled() {
		return BreakerClosed
	}
	c.breakerMu.Lock()
	b := c.breakers[endpoint]
	c.breakerMu.Unlock()
	if b == nil {
		return BreakerClosed
	}
	return b.snapshot()
}
