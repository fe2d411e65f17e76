package shard

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

// TestFaultTableShardStrike pins the router's strike rule over the fault
// table's representative errors (orb's faultCases, less the decodeError row
// a caller never sees); TestTransportFaultClassification adds the trading
// sentinels an in-process shard returns.
func TestFaultTableShardStrike(t *testing.T) {
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
		{errors.New("trading: parse error in constraint"), false},             // Unknown
	} {
		if got := transportFault(c.err); got != c.want {
			t.Errorf("transportFault(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
