package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// TestFaultTableFailover pins the proxy's failover and routed-retry rule
// over the fault table's representative errors (orb's faultCases, less the
// decodeError row a caller never sees).
func TestFaultTableFailover(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{nil, false}, // NoFault
		{&orb.RemoteError{Code: orb.CodeApp, Msg: "no such aspect"}, false},                      // Answered
		{fmt.Errorf("call: %w", &orb.RemoteError{Code: orb.CodeBadParam, Msg: "arg 1"}), false},  // Answered
		{&orb.RemoteError{Code: orb.CodeBadOperation, Msg: "getAspectValues"}, false},            // Answered
		{&orb.RemoteError{Code: orb.CodeInternal, Msg: "panic"}, false},                          // Answered
		{&orb.RemoteError{Code: orb.CodeNoSuchObject, Msg: "monitor/x"}, false},                  // Answered
		{&orb.RemoteError{Code: orb.CodeDeadline, Msg: "expired before dispatch"}, false},        // Expired
		{fmt.Errorf("call: %w", &orb.RemoteError{Code: orb.CodeOverloaded, Msg: "shed"}), false}, // Overloaded
		{context.Canceled, false}, // Abandoned
		{fmt.Errorf("orb: write: %w", context.DeadlineExceeded), false},                      // Abandoned
		{wire.ErrFrameTooLarge, false},                                                       // Unsendable
		{fmt.Errorf("orb: encode: %w", wire.ErrTooDeep), false},                              // Unsendable
		{fmt.Errorf("%w: endpoint x cooling down", orb.ErrCircuitOpen), true},                // Refused
		{orb.ErrClosed, true},                                                                // Refused
		{orb.ErrUnknownNetwork, true},                                                        // Refused
		{&orb.ConnectError{Err: errors.New("connection refused")}, true},                     // Unreachable
		{&orb.ConnectError{Err: fmt.Errorf("%w: dial dropped", orb.ErrInjectedFault)}, true}, // Unreachable
		{io.EOF, true}, // Lost
		{fmt.Errorf("orb: read: %w", io.ErrUnexpectedEOF), true},              // Lost
		{io.ErrClosedPipe, true},                                              // Lost
		{net.ErrClosed, true},                                                 // Lost
		{&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}, true}, // Lost
		{fmt.Errorf("%w: connection severed", orb.ErrInjectedFault), true},    // Lost
		{errors.New("trading: parse error in constraint"), true},              // Unknown
	} {
		if c.err == nil {
			continue // the proxy asks only about a failed call
		}
		if got := indictsBinding(c.err); got != c.want {
			t.Errorf("indictsBinding(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestUnsendableRequestKeepsBinding: a request the client cannot encode says
// nothing about the server, so a Failover proxy neither re-queries the
// trader nor leaves a healthy server to resend the same request elsewhere.
func TestUnsendableRequestKeepsBinding(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("bound to %v, want host-0", ref)
	}
	deep := wire.String("leaf")
	for range 100 { // past the wire's nesting limit
		tb := wire.NewTable()
		tb.Append(deep)
		deep = wire.TableVal(tb)
	}
	before := sp.Stats()
	if _, err := sp.Invoke(ctx, "hello", deep); !errors.Is(err, wire.ErrTooDeep) {
		t.Fatalf("invoke with a too-deep argument: %v, want wire.ErrTooDeep", err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("rebound to %v on an unsendable request", ref)
	}
	if after := sp.Stats(); after.Switches != before.Switches || after.Selections != before.Selections {
		t.Fatalf("switches %d -> %d, selections %d -> %d; want both unchanged",
			before.Switches, after.Switches, before.Selections, after.Selections)
	}
}
