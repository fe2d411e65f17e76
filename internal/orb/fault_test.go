package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// faultCases is the list of representative errors, bare and wrapped, whose
// fault tables orb, core, trading and trading/shard each pin. Their copies
// leave out the decodeError row: Invoke hands its caller the decoder's own
// error, which the Unknown row stands for.
var faultCases = []struct {
	err   error
	fault Fault
}{
	{nil, NoFault},
	{&RemoteError{Code: CodeApp, Msg: "no such aspect"}, Answered},
	{fmt.Errorf("call: %w", &RemoteError{Code: CodeBadParam, Msg: "arg 1"}), Answered},
	{&RemoteError{Code: CodeBadOperation, Msg: "getAspectValues"}, Answered},
	{&RemoteError{Code: CodeInternal, Msg: "panic"}, Answered},
	{&RemoteError{Code: CodeNoSuchObject, Msg: "monitor/x"}, Answered},
	{&decodeError{err: errors.New("trading: reply: bad row")}, Answered},
	{&RemoteError{Code: CodeDeadline, Msg: "expired before dispatch"}, Expired},
	{fmt.Errorf("call: %w", &RemoteError{Code: CodeOverloaded, Msg: "shed"}), Overloaded},
	{context.Canceled, Abandoned},
	{fmt.Errorf("orb: write: %w", context.DeadlineExceeded), Abandoned},
	{wire.ErrFrameTooLarge, Unsendable},
	{fmt.Errorf("orb: encode: %w", wire.ErrTooDeep), Unsendable},
	{fmt.Errorf("%w: endpoint x cooling down", ErrCircuitOpen), Refused},
	{ErrClosed, Refused},
	{ErrUnknownNetwork, Refused},
	{&ConnectError{Err: errors.New("connection refused")}, Unreachable},
	{&ConnectError{Err: fmt.Errorf("%w: dial dropped", ErrInjectedFault)}, Unreachable},
	{io.EOF, Lost},
	{fmt.Errorf("orb: read: %w", io.ErrUnexpectedEOF), Lost},
	{io.ErrClosedPipe, Lost},
	{net.ErrClosed, Lost},
	{&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}, Lost},
	{fmt.Errorf("%w: connection severed", ErrInjectedFault), Lost},
	{errors.New("trading: parse error in constraint"), Unknown},
}

var faultNames = [...]string{"NoFault", "Answered", "Expired", "Overloaded", "Abandoned",
	"Unsendable", "Refused", "Unreachable", "Lost", "Unknown"}

// TestFaultTable pins FaultOf and the ORB's three sets over it (Fault's doc
// comment): what the breaker does with an outcome, whether a RetryPolicy
// retries it, and its metrics class.
func TestFaultTable(t *testing.T) {
	type sets struct {
		breaker string
		retry   bool
		class   string
	}
	want := map[Fault]sets{
		NoFault:     {"reset", false, "ok"},
		Answered:    {"reset", false, "app"},
		Expired:     {"reset", false, "deadline"},
		Overloaded:  {"neutral", true, "overloaded"},
		Abandoned:   {"neutral", false, "deadline"},
		Unsendable:  {"neutral", false, "rejected"},
		Refused:     {"neutral", false, "rejected"},
		Unreachable: {"strike", true, "transport"},
		Lost:        {"strike", false, "transport"},
		Unknown:     {"strike", false, "transport"},
	}
	for _, c := range faultCases {
		if got := FaultOf(c.err); got != c.fault {
			t.Errorf("FaultOf(%v) = %s, want %s", c.err, faultNames[got], faultNames[c.fault])
		}
		w := want[c.fault]
		got := sets{breakerEffect(c.err), RetryPolicy{}.Retryable(c.err), classNames[classify(c.err)]}
		if got.breaker != w.breaker {
			t.Errorf("breaker on %v (%s): %s, want %s", c.err, faultNames[c.fault], got.breaker, w.breaker)
		}
		if got.retry != w.retry {
			t.Errorf("Retryable(%v) (%s): %v, want %v", c.err, faultNames[c.fault], got.retry, w.retry)
		}
		if got.class != w.class {
			t.Errorf("class of %v (%s): %s, want %s", c.err, faultNames[c.fault], got.class, w.class)
		}
	}
}

// breakerEffect records err on a closed breaker one strike short of opening
// and on a half-open one whose probe err answers, and reports what it did:
// "reset", "strike" or "neutral" (a neutral outcome must free the probe).
func breakerEffect(err error) string {
	now := func() time.Time { return bkEpoch }
	closed := newBreaker(BreakerPolicy{Threshold: 2}, now)
	closed.record(io.EOF, false)
	closed.record(err, false)
	half := newBreaker(BreakerPolicy{Threshold: 2}, now)
	half.state, half.probing = BreakerHalfOpen, true
	half.record(err, true)
	switch {
	case closed.state == BreakerClosed && closed.fails == 0 && half.state == BreakerClosed:
		return "reset"
	case closed.state == BreakerOpen && half.state == BreakerOpen:
		return "strike"
	case closed.state == BreakerClosed && closed.fails == 1 && half.state == BreakerHalfOpen && !half.probing:
		return "neutral"
	}
	return fmt.Sprintf("inconsistent (closed %s/%d, half-open %s/%v)", closed.state, closed.fails, half.state, half.probing)
}
