package orb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Fault-tolerance policy for invocations.
//
// The ORB distinguishes two failure phases. A *connect-phase* failure
// (dial refused, connection already known dead) happens before the request
// could have reached the wire, so retrying can never execute an operation
// twice — those are always safe to retry. Any later failure (write error,
// connection lost while awaiting the reply) leaves the server possibly
// having dispatched the operation, and is never retried. These are the
// Unreachable and Lost faults; Fault's table gives the rest of the retry set.

// ConnectError wraps a transport failure that occurred before the request
// reached the wire: dialing the endpoint, or finding the cached connection
// already dead. Retrying after a ConnectError is always safe.
type ConnectError struct{ Err error }

// Error implements error.
func (e *ConnectError) Error() string { return fmt.Sprintf("orb: connect: %v", e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ConnectError) Unwrap() error { return e.Err }

// RetryPolicy configures automatic re-invocation on transport faults.
// The zero value disables retries (a single attempt). Only faults that
// prove the request never reached a servant are retried (see Retryable),
// so a retry can never run an operation twice.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Default 10ms. Each
	// later retry waits twice as long as the one before, up to maxBackoff.
	BaseBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (0..1) to spread
	// reconnection herds. 0 keeps backoff deterministic.
	Jitter float64
}

// maxBackoff caps the exponential growth of the retry delay.
const maxBackoff = time.Second

// maxAttempts normalizes MaxAttempts.
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay to wait after the given failed attempt
// (1-based): base·2^(attempt-1), capped at maxBackoff, with jitter applied.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if attempt < 1 {
		attempt = 1
	}
	d := float64(base) * math.Pow(2, float64(attempt-1))
	if d > float64(maxBackoff) {
		d = float64(maxBackoff)
	}
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d *= 1 - j + 2*j*rand.Float64()
	}
	return time.Duration(d)
}

// Retryable reports whether a failed invocation may be attempted again
// (see Fault): only when the request was never dispatched.
func (p RetryPolicy) Retryable(err error) bool {
	return FaultOf(err).In(Overloaded, Unreachable)
}

// sleepBackoff waits for d or until ctx is done, returning ctx.Err() in
// the latter case.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
