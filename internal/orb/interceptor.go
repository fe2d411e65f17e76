package orb

import (
	"context"
	"sync"

	"autoadapt/internal/wire"
)

// Portable interceptors — the paper's §VI ongoing work: "With this
// integration, we will be able to implement CORBA interceptors ... and use
// them, instead of the smart proxy mechanism, to apply the adaptation
// strategies supported by our infrastructure. The use of the CORBA
// interceptor mechanism will allow us to plug our dynamic adaptation
// support into standard CORBA applications."
//
// An InterceptingClient wraps a Client with a chain of request
// interceptors. Each interceptor sees every outbound invocation and may
// observe it, abort it, or *redirect* it to a different object reference —
// which is exactly the hook adaptation needs: a client written against a
// fixed reference becomes adaptive without changing a line of its code
// (see core.InterceptorBridge for the strategy-driven implementation).

// RequestInfo describes one outbound invocation as seen by interceptors.
type RequestInfo struct {
	Target    wire.ObjRef
	Operation string
	Args      []wire.Value
	Oneway    bool
}

// RequestInterceptor is the client-side portable interceptor. SendRequest
// runs before the invocation leaves the client; it may return a different
// target to redirect the call, or an error to abort it. ReceiveReply runs
// after the reply (or error) arrives.
type RequestInterceptor interface {
	SendRequest(ctx context.Context, info *RequestInfo) (wire.ObjRef, error)
	ReceiveReply(ctx context.Context, info *RequestInfo, results []wire.Value, err error)
}

// RequestInterceptorFuncs adapts plain functions to RequestInterceptor;
// either field may be nil.
type RequestInterceptorFuncs struct {
	OnSend    func(ctx context.Context, info *RequestInfo) (wire.ObjRef, error)
	OnReceive func(ctx context.Context, info *RequestInfo, results []wire.Value, err error)
}

// SendRequest implements RequestInterceptor.
func (f RequestInterceptorFuncs) SendRequest(ctx context.Context, info *RequestInfo) (wire.ObjRef, error) {
	if f.OnSend == nil {
		return info.Target, nil
	}
	return f.OnSend(ctx, info)
}

// ReceiveReply implements RequestInterceptor.
func (f RequestInterceptorFuncs) ReceiveReply(ctx context.Context, info *RequestInfo, results []wire.Value, err error) {
	if f.OnReceive != nil {
		f.OnReceive(ctx, info, results, err)
	}
}

// InterceptingClient is a Client with a portable-interceptor chain. It
// exposes the same Invoke/InvokeOneway surface, so existing code can swap
// one in transparently.
type InterceptingClient struct {
	inner *Client

	mu    sync.RWMutex
	chain []RequestInterceptor
}

// NewInterceptingClient wraps inner.
func NewInterceptingClient(inner *Client) *InterceptingClient {
	return &InterceptingClient{inner: inner}
}

// Use appends an interceptor to the chain (runs in registration order).
func (c *InterceptingClient) Use(i RequestInterceptor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chain = append(c.chain, i)
}

// Inner returns the wrapped client.
func (c *InterceptingClient) Inner() *Client { return c.inner }

func (c *InterceptingClient) interceptors() []RequestInterceptor {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]RequestInterceptor, len(c.chain))
	copy(out, c.chain)
	return out
}

// Invoke runs the SendRequest chain (each stage may redirect), performs the
// invocation, then runs ReceiveReply in reverse order.
func (c *InterceptingClient) Invoke(ctx context.Context, ref wire.ObjRef, op string, args ...wire.Value) ([]wire.Value, error) {
	chain := c.interceptors()
	info := &RequestInfo{Target: ref, Operation: op, Args: args}
	for _, ic := range chain {
		target, err := ic.SendRequest(ctx, info)
		if err != nil {
			return nil, err
		}
		info.Target = target
	}
	results, err := c.inner.Invoke(ctx, info.Target, op, args...)
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].ReceiveReply(ctx, info, results, err)
	}
	return results, err
}

// InvokeAsync runs the SendRequest chain (each stage may redirect), then
// begins a pipelined invocation on the final target. ReceiveReply runs, in
// reverse order, when the future completes — on whichever goroutine
// observes the completion (the connection's reader, or a canceling
// waiter), so interceptors must be ready for delivery off the caller's
// goroutine.
func (c *InterceptingClient) InvokeAsync(ctx context.Context, ref wire.ObjRef, op string, args ...wire.Value) (*Future, error) {
	chain := c.interceptors()
	info := &RequestInfo{Target: ref, Operation: op, Args: args}
	for _, ic := range chain {
		target, err := ic.SendRequest(ctx, info)
		if err != nil {
			return nil, err
		}
		info.Target = target
	}
	fut, err := c.inner.InvokeAsync(ctx, info.Target, op, args...)
	if err != nil {
		for i := len(chain) - 1; i >= 0; i-- {
			chain[i].ReceiveReply(ctx, info, nil, err)
		}
		return nil, err
	}
	if len(chain) > 0 {
		fut.addObserver(func(results []wire.Value, err error) {
			for i := len(chain) - 1; i >= 0; i-- {
				chain[i].ReceiveReply(ctx, info, results, err)
			}
		})
	}
	return fut, nil
}

// InvokeOneway runs the SendRequest chain, then fires the oneway request.
// ReceiveReply is not invoked (there is no reply).
func (c *InterceptingClient) InvokeOneway(ref wire.ObjRef, op string, args ...wire.Value) error {
	info := &RequestInfo{Target: ref, Operation: op, Args: args, Oneway: true}
	for _, ic := range c.interceptors() {
		target, err := ic.SendRequest(context.Background(), info)
		if err != nil {
			return err
		}
		info.Target = target
	}
	return c.inner.InvokeOneway(info.Target, op, args...)
}

// Close closes the wrapped client.
func (c *InterceptingClient) Close() error { return c.inner.Close() }
