package main

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// The traced pass records spans from outside the program: every span is
// opened and closed by a benchmark-owned wrapper around a public function
// (README "Reading the traced table"). One caller runs a closed loop, so
// every span recorded between an op's start and end belongs to that op and
// spans nest by time containment; a span's parent is the innermost span
// open when it started.

// kind names a span and the layer its self time belongs to.
type kind uint8

const (
	kOp             kind = iota // one closed-loop op, opened by the driver
	kCoreInvoke                 // SmartProxy.Invoke
	kCoreAdapt                  // SmartProxy.Adapt
	kMonSet                     // Monitor.SetValue
	kMonTick                    // Monitor.Tick
	kWaitEvent                  // driver waiting for the pushed event to be queued
	kTradingClient              // a trading.Directory call seen by its caller
	kTradingServant             // trading.Servant.Invoke, server side
	kMonServant                 // monitor.Servant Invoke/Subscribe, server side
	kAppServant                 // the benchmark's echo servant, server side
	kResolve                    // DynamicResolver.ResolveDynamic
	kOrbAsync                   // a pipelined segment of Client.InvokeAsync
	numKinds
)

var kindInfo = [numKinds]struct{ name, layer string }{
	kOp:             {"op", "bench"},
	kCoreInvoke:     {"core.SmartProxy.Invoke", "core"},
	kCoreAdapt:      {"core.SmartProxy.Adapt", "core"},
	kMonSet:         {"monitor.Monitor.SetValue", "monitor"},
	kMonTick:        {"monitor.Monitor.Tick", "monitor"},
	kWaitEvent:      {"wait.PendingEvents", "bench"},
	kTradingClient:  {"trading.Directory", "trading"},
	kTradingServant: {"trading.Servant.Invoke", "trading"},
	kMonServant:     {"monitor.Servant", "monitor"},
	kAppServant:     {"echo servant", "bench"},
	kResolve:        {"trading.DynamicResolver", "bench"},
	kOrbAsync:       {"orb.Client.InvokeAsync", "orb"},
}

type span struct {
	kind       kind
	start, end int64 // ns since the tracer's epoch
}

// write is one Write call on a wrapped connection.
type write struct {
	at            int64
	frames, bytes int
}

// kindTotals accumulates what the spans of one kind add up to.
type kindTotals struct {
	count, selfNs, durNs  int64
	writes, frames, bytes int64
}

// tracer records spans and connection writes in memory. All methods are
// safe on a nil tracer, which records nothing: the untraced pass runs the
// same driver code with tr == nil.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	writes []write
	// captured holds a copy of every frame payload written while capture
	// is set; the wire probe re-encodes and decodes exactly these.
	capture  bool
	captured [][]byte

	reads, queries atomic.Int64

	totals  [numKinds]kindTotals
	ops     int64
	kept    []span // first folded segment, written to the trace file
	keptOps int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now starts a span: pass the result to span when the call returns.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) span(k kind, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{k, start, end})
	t.mu.Unlock()
}

// start drops what warm-up recorded and captures the frames of the
// segment that follows.
func (t *tracer) start() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.writes = t.spans[:0], t.writes[:0]
	t.capture = true
	t.mu.Unlock()
	t.reads.Store(0)
	t.queries.Store(0)
}

// fold attributes the spans and writes recorded since the last fold and
// adds them to the totals. ops is the number of ops they cover.
func (t *tracer) fold(ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capture = false // one segment's frames are enough for the wire probe
	spans, writes := t.spans, t.writes
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(b.end, a.end) // the enclosing span first
	})
	slices.SortFunc(writes, func(a, b write) int { return cmp.Compare(a.at, b.at) })
	if t.kept == nil {
		t.kept, t.keptOps = slices.Clone(spans), ops
	}

	child := make([]int64, len(spans)) // time covered by direct children
	var stack []int
	wi := 0
	charge := func(until int64) { // writes before until go to the innermost open span
		for ; wi < len(writes) && writes[wi].at < until; wi++ {
			for len(stack) > 0 && spans[stack[len(stack)-1]].end <= writes[wi].at {
				stack = stack[:len(stack)-1]
			}
			k := kOp
			if len(stack) > 0 {
				k = spans[stack[len(stack)-1]].kind
			}
			tot := &t.totals[k]
			tot.writes++
			tot.frames += int64(writes[wi].frames)
			tot.bytes += int64(writes[wi].bytes)
		}
	}
	for i, s := range spans {
		charge(s.start)
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += s.end - s.start
		}
		stack = append(stack, i)
	}
	charge(1 << 62)
	for i, s := range spans {
		tot := &t.totals[s.kind]
		tot.count++
		tot.durNs += s.end - s.start
		tot.selfNs += s.end - s.start - child[i]
	}
	t.ops += int64(ops)
	t.spans, t.writes = spans[:0], writes[:0]
}

// written sums what the folded segments wrote on all connections.
func (t *tracer) written() (writes, frames, bytes int64) {
	for _, tot := range t.totals {
		writes += tot.writes
		frames += tot.frames
		bytes += tot.bytes
	}
	return writes, frames, bytes
}

// writeFile writes the first traced segment's spans, each with its parent,
// to benchmark/out/<workload>.trace.json.
func (t *tracer) writeFile(dir, workload string) error {
	type jsonSpan struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"` // -1 for an op
		Op     int    `json:"op"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	out := make([]jsonSpan, 0, len(t.kept))
	var stack []int
	op := -1
	for i, s := range t.kept {
		for len(stack) > 0 && t.kept[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		parent := -1
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		if s.kind == kOp {
			op++
		}
		out = append(out, jsonSpan{i, parent, max(op, 0), kindInfo[s.kind].name, kindInfo[s.kind].layer, s.start, s.end})
		stack = append(stack, i)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "ops": t.keptOps, "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// ---- wrappers ----

// tracedNetwork wraps an orb.Network so every connection made through it,
// dialled or accepted, counts its reads and writes. With a nil tracer it
// returns the network itself.
func tracedNetwork(n orb.Network, t *tracer) orb.Network {
	if t == nil {
		return n
	}
	return &countingNetwork{Network: n, t: t}
}

type countingNetwork struct {
	orb.Network
	t *tracer
}

func (n *countingNetwork) Listen(addr string) (orb.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, t: n.t}, nil
}

func (n *countingNetwork) Dial(addr string) (net.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: n.t}, nil
}

type countingListener struct {
	orb.Listener
	t *tracer
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: l.t}, nil
}

type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.t.reads.Add(1)
	}
	return n, err
}

// Write counts the frames in b. The ORB writes whole frames — one, or a
// batch of several — so b is a sequence of 4-byte length prefixes and
// payloads.
func (c *countingConn) Write(b []byte) (int, error) {
	t := c.t
	at := int64(time.Since(t.epoch))
	frames := 0
	t.mu.Lock()
	for rest := b; len(rest) >= 4; frames++ {
		size := int(binary.BigEndian.Uint32(rest))
		if size > len(rest)-4 {
			break
		}
		if t.capture {
			t.captured = append(t.captured, slices.Clone(rest[4:4+size]))
		}
		rest = rest[4+size:]
	}
	t.writes = append(t.writes, write{at, frames, len(b)})
	t.mu.Unlock()
	return c.Conn.Write(b)
}

// tracedServant wraps sv so each dispatch records a server-side span. The
// wrapper keeps the inner servant's push support: core.Watch subscribes
// through orb.EventSource.
func tracedServant(sv orb.Servant, k kind, t *tracer) orb.Servant {
	if t == nil {
		return sv
	}
	ts := spanServant{sv, k, t}
	if es, ok := sv.(orb.EventSource); ok {
		return &spanSource{ts, es}
	}
	return &ts
}

type spanServant struct {
	inner orb.Servant
	k     kind
	t     *tracer
}

func (s *spanServant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	if s.k == kTradingServant && op == "query" {
		s.t.queries.Add(1)
	}
	defer s.t.span(s.k, s.t.now())
	return s.inner.Invoke(op, args)
}

type spanSource struct {
	spanServant
	es orb.EventSource
}

func (s *spanSource) Subscribe(topic string, args []wire.Value, sink orb.EventSink) (func(), error) {
	defer s.t.span(s.k, s.t.now())
	return s.es.Subscribe(topic, args, sink)
}

// tracedResolver wraps the trader's DynamicResolver.
func tracedResolver(r trading.DynamicResolver, t *tracer) trading.DynamicResolver {
	if t == nil {
		return r
	}
	return &spanResolver{r, t}
}

type spanResolver struct {
	inner trading.DynamicResolver
	t     *tracer
}

func (r *spanResolver) ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	defer r.t.span(kResolve, r.t.now())
	return r.inner.ResolveDynamic(ctx, ref, aspect)
}

// tracedDirectory wraps the trading.Directory a caller holds, so the span
// is the call as that caller sees it: marshalling, the ORB round trip and
// the trader's own work, which the servant span inside it separates.
func tracedDirectory(d trading.Directory, t *tracer) trading.Directory {
	if t == nil {
		return d
	}
	return &spanDirectory{d, t}
}

type spanDirectory struct {
	trading.Directory
	t *tracer
}

func (d *spanDirectory) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]trading.QueryResult, error) {
	defer d.t.span(kTradingClient, d.t.now())
	return d.Directory.Query(ctx, serviceType, constraint, preference, maxResults)
}

func (d *spanDirectory) Export(ctx context.Context, serviceType string, ref wire.ObjRef, props map[string]trading.PropValue) (string, error) {
	defer d.t.span(kTradingClient, d.t.now())
	return d.Directory.Export(ctx, serviceType, ref, props)
}

func (d *spanDirectory) Withdraw(ctx context.Context, offerID string) error {
	defer d.t.span(kTradingClient, d.t.now())
	return d.Directory.Withdraw(ctx, offerID)
}

func (d *spanDirectory) Modify(ctx context.Context, offerID string, props map[string]trading.PropValue) error {
	defer d.t.span(kTradingClient, d.t.now())
	return d.Directory.Modify(ctx, offerID, props)
}

func (d *spanDirectory) Renew(ctx context.Context, offerID string) error {
	defer d.t.span(kTradingClient, d.t.now())
	return d.Directory.Renew(ctx, offerID)
}
