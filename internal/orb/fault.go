package orb

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"

	"autoadapt/internal/wire"
)

// Fault is what a failed call proves about who failed: the server, the path
// to it, the caller or the request. FaultOf is the one place that matches
// errors to decide it; every policy over failures is a set of classes:
//
//	class        errors                                  breaker  retry       metrics     failover  shard
//	NoFault      nil                                     reset    no          ok          no        no
//	Answered     RemoteError of any other code, or a     reset    no          app         no        no
//	             reply the caller's decoder refused
//	Expired      RemoteError CodeDeadline                reset    no          deadline    no        no
//	Overloaded   RemoteError CodeOverloaded              neutral  yes         overloaded  no        no
//	Abandoned    context.Canceled, DeadlineExceeded      neutral  no          deadline    no        no
//	Unsendable   wire.ErrFrameTooLarge, ErrTooDeep       neutral  no          rejected    no        no
//	Refused      ErrCircuitOpen, ErrClosed,              neutral  no          rejected    yes       yes
//	             ErrUnknownNetwork
//	Unreachable  ConnectError                            strike   yes         transport   yes       yes
//	Lost         io.EOF, ErrUnexpectedEOF, ErrClosedPipe, strike  no          transport   yes       yes
//	             net.ErrClosed, any net.Error,
//	             ErrInjectedFault
//	Unknown      anything else                           strike   no          transport   yes       no
//
// "retry" is RetryPolicy's re-invocation, "failover" a smart proxy's
// re-selection and routed retry, and "shard" the sharded trader's strike
// against a shard. Results a server cannot encode or frame come back as
// CodeInternal, so Answered: the server and the path to it work, and a
// retry would fail alike. The trader asks a monitor for its
// aspects one by one when a batched read is Answered with CodeApp,
// CodeInternal, CodeBadOperation or CodeBadParam.
type Fault uint8

// The fault classes, checked in this order.
const (
	NoFault Fault = iota
	Answered
	Expired
	Overloaded
	Abandoned
	Unsendable
	Refused
	Unreachable
	Lost
	Unknown
)

// FaultOf classifies err, which may wrap the errors the classes name.
func FaultOf(err error) Fault {
	if err == nil {
		return NoFault
	}
	var re *RemoteError
	var de *decodeError
	var ce *ConnectError
	var ne net.Error
	switch {
	case errors.As(err, &re) && re.Code == CodeDeadline:
		return Expired
	case re != nil && re.Code == CodeOverloaded:
		return Overloaded
	case re != nil, errors.As(err, &de):
		return Answered
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Abandoned
	case errors.Is(err, wire.ErrFrameTooLarge), errors.Is(err, wire.ErrTooDeep):
		return Unsendable
	case errors.Is(err, ErrCircuitOpen), errors.Is(err, ErrClosed), errors.Is(err, ErrUnknownNetwork):
		return Refused
	case errors.As(err, &ce):
		return Unreachable
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed), errors.Is(err, ErrInjectedFault), errors.As(err, &ne):
		return Lost
	}
	return Unknown
}

// In reports whether f is one of set.
func (f Fault) In(set ...Fault) bool { return slices.Contains(set, f) }
