package trading

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

// TestFaultTableBatchFallback pins when a batched aspect read falls back to
// one call per aspect, over the fault table's representative errors (orb's
// faultCases, less the decodeError row a caller never sees).
func TestFaultTableBatchFallback(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{nil, false}, // NoFault
		{&orb.RemoteError{Code: orb.CodeApp, Msg: "no such aspect"}, true},                       // Answered
		{fmt.Errorf("call: %w", &orb.RemoteError{Code: orb.CodeBadParam, Msg: "arg 1"}), true},   // Answered
		{&orb.RemoteError{Code: orb.CodeBadOperation, Msg: "getAspectValues"}, true},             // Answered
		{&orb.RemoteError{Code: orb.CodeInternal, Msg: "panic"}, true},                           // Answered
		{&orb.RemoteError{Code: orb.CodeNoSuchObject, Msg: "monitor/x"}, false},                  // Answered
		{&orb.RemoteError{Code: orb.CodeDeadline, Msg: "expired before dispatch"}, false},        // Expired
		{fmt.Errorf("call: %w", &orb.RemoteError{Code: orb.CodeOverloaded, Msg: "shed"}), false}, // Overloaded
		{context.Canceled, false}, // Abandoned
		{fmt.Errorf("orb: write: %w", context.DeadlineExceeded), false},                       // Abandoned
		{wire.ErrFrameTooLarge, false},                                                        // Unsendable
		{fmt.Errorf("orb: encode: %w", wire.ErrTooDeep), false},                               // Unsendable
		{fmt.Errorf("%w: endpoint x cooling down", orb.ErrCircuitOpen), false},                // Refused
		{orb.ErrClosed, false},                                                                // Refused
		{orb.ErrUnknownNetwork, false},                                                        // Refused
		{&orb.ConnectError{Err: errors.New("connection refused")}, false},                     // Unreachable
		{&orb.ConnectError{Err: fmt.Errorf("%w: dial dropped", orb.ErrInjectedFault)}, false}, // Unreachable
		{io.EOF, false}, // Lost
		{fmt.Errorf("orb: read: %w", io.ErrUnexpectedEOF), false},              // Lost
		{io.ErrClosedPipe, false},                                              // Lost
		{net.ErrClosed, false},                                                 // Lost
		{&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}, false}, // Lost
		{fmt.Errorf("%w: connection severed", orb.ErrInjectedFault), false},    // Lost
		{errors.New("trading: parse error in constraint"), false},              // Unknown
	} {
		if got := rejectedByObject(c.err); got != c.want {
			t.Errorf("rejectedByObject(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
