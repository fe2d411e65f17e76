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
// having dispatched the operation; such failures are retried only when the
// policy declares the workload idempotent. These are the Unreachable and
// Lost faults; Fault's table gives the rest of the retry set.

// ConnectError wraps a transport failure that occurred before the request
// reached the wire: dialing the endpoint, or finding the cached connection
// already dead. Retrying after a ConnectError is always safe.
type ConnectError struct{ Err error }

// Error implements error.
func (e *ConnectError) Error() string { return fmt.Sprintf("orb: connect: %v", e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ConnectError) Unwrap() error { return e.Err }

// RetryPolicy configures automatic re-invocation on transport faults.
// The zero value disables retries (a single attempt).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Default 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 1s.
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor. Default 2.
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction (0..1) to spread
	// reconnection herds. 0 keeps backoff deterministic.
	Jitter float64
	// RetryIdempotent additionally retries failures that occurred after
	// the request may have been dispatched (lost connections mid-flight).
	// Only enable it when the invoked operations tolerate re-execution.
	RetryIdempotent bool
}

// maxAttempts normalizes MaxAttempts.
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay to wait after the given failed attempt
// (1-based): base·multiplier^(attempt-1), capped, with jitter applied.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	limit := p.MaxBackoff
	if limit <= 0 {
		limit = time.Second
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	if attempt < 1 {
		attempt = 1
	}
	d := float64(base) * math.Pow(mult, float64(attempt-1))
	if d > float64(limit) {
		d = float64(limit)
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
// under this policy (see Fault).
func (p RetryPolicy) Retryable(err error) bool {
	switch FaultOf(err) {
	case Overloaded, Unreachable: // never dispatched, so never run twice
		return true
	case Lost, Unknown:
		return p.RetryIdempotent
	}
	return false
}

// SleepBackoff waits for d or until ctx is done, returning ctx.Err() in
// the latter case.
func SleepBackoff(ctx context.Context, d time.Duration) error {
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
