// Package agent implements the paper's *service agents* (§IV, Fig. 6):
// "the elements responsible for announcing service offers to a trader.
// Besides managing the service offers of one or more server components,
// these service agents — typically implemented as Lua scripts — can create
// new monitors or configure existing ones".
//
// An Agent runs on a server's host: it owns the host's ORB server, hosts
// the service servant and a LoadAvg monitor (the paper's Fig. 3 monitor
// with the Increasing and Load1 aspects), exports an offer whose dynamic
// properties reference that monitor, and withdraws the offer on shutdown.
// An optional AdaptScript configuration hook lets deployments customize
// the monitor and the offer's properties at start-up, the way the paper's
// agents do.
package agent

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Well-known object keys the agent registers.
const (
	ServiceKey = "service"
	MonitorKey = "monitor/LoadAvg"
)

// Options configures an Agent.
type Options struct {
	// Network and Address the agent's ORB server listens on. Required.
	Network orb.Network
	Address string
	// Lookup reaches the trading service — a remote trader (*trading.Lookup),
	// an in-process one (trading.Local), or a shard router. Required.
	Lookup trading.Directory
	// ServiceType of the offer to export. Required.
	ServiceType string
	// Servant implements the service. Required.
	Servant orb.Servant
	// LoadSource feeds the LoadAvg monitor (a hostenv.Host, a
	// monitor.ProcFile reading the real /proc/loadavg, or any stub).
	// Required.
	LoadSource monitor.LoadSource
	// MonitorPeriod is the monitor's update interval; the paper's Fig. 3
	// uses one minute. Default 60s.
	MonitorPeriod time.Duration
	// Clock drives the monitor timer. Defaults to the real clock.
	Clock clock.Clock
	// StaticProps are added to the offer verbatim (e.g. Host name).
	StaticProps map[string]wire.Value
	// ConfigScript, if non-empty, runs at start with the primitives
	// documented on RunConfigScript.
	ConfigScript string
	// Logger receives diagnostics. Nil discards.
	Logger *log.Logger
	// Retry governs the transport-fault retries of the client on Network
	// the agent delivers monitor notifications with, so a briefly
	// unreachable trader or observer doesn't lose notifications.
	Retry orb.RetryPolicy
	// InvokeTimeout bounds each of that client's invocations
	// (0 = unbounded).
	InvokeTimeout time.Duration
	// LeaseTTL, when positive, must match the trader's offer lease TTL:
	// the agent then runs a background heartbeat renewing the offer at
	// roughly a third of the TTL (jittered), and re-exports the offer
	// from scratch if the trader forgot it. 0 disables the heartbeat.
	LeaseTTL time.Duration
	// MaxConcurrent bounds the agent server's dispatch pool (see
	// orb.ServerOptions.MaxConcurrent): 0 uses the ORB default; negative is
	// an error.
	MaxConcurrent int
	// ScriptWallBudget and ScriptMemBudget sandbox every piece of shipped
	// code the agent runs: the start-up config script and all monitor
	// aspect/predicate evaluations. Zero leaves the corresponding bound
	// off.
	ScriptWallBudget time.Duration
	ScriptMemBudget  int64
}

// Agent is a running service agent.
type Agent struct {
	opts       Options
	server     *orb.Server
	mon        *monitor.Monitor
	notify     *orb.Client // delivers monitor notifications
	svcRef     wire.ObjRef
	monRef     wire.ObjRef
	extraProps map[string]trading.PropValue

	// exportProps is the full property map the offer was exported with,
	// kept so the heartbeat can re-export an offer the trader forgot.
	// Immutable after Start.
	exportProps map[string]trading.PropValue

	mu      sync.Mutex
	offerID string
	closed  bool
	health  Health
	hbStop  chan struct{} // closed by Close to stop the heartbeat
	hbDone  chan struct{} // closed by the heartbeat on exit
}

// Start brings the agent up: server, monitor, config script, offer export.
func Start(ctx context.Context, opts Options) (*Agent, error) {
	switch {
	case opts.Network == nil:
		return nil, errors.New("agent: Options.Network is required")
	case opts.Lookup == nil:
		return nil, errors.New("agent: Options.Lookup is required")
	case opts.ServiceType == "":
		return nil, errors.New("agent: Options.ServiceType is required")
	case opts.Servant == nil:
		return nil, errors.New("agent: Options.Servant is required")
	case opts.LoadSource == nil:
		return nil, errors.New("agent: Options.LoadSource is required")
	}
	if opts.MonitorPeriod == 0 {
		opts.MonitorPeriod = time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}

	a := &Agent{opts: opts, extraProps: map[string]trading.PropValue{}}
	ok := false
	defer func() {
		if !ok {
			a.shutdown()
		}
	}()

	srv, err := orb.NewServer(orb.ServerOptions{
		Network: opts.Network, Address: opts.Address, Logger: opts.Logger,
		MaxConcurrent: opts.MaxConcurrent,
	})
	if err != nil {
		return nil, err
	}
	a.server = srv

	a.notify = orb.NewClientOpts(orb.ClientOptions{
		Networks:      []orb.Network{opts.Network},
		Retry:         opts.Retry,
		InvokeTimeout: opts.InvokeTimeout,
	})

	mon, err := monitor.NewLoadAverage(opts.LoadSource, opts.Clock, opts.MonitorPeriod,
		monitor.ORBNotifier{Client: a.notify},
		monitor.WithSelfRef(srv.RefFor(MonitorKey)),
		monitor.WithLogger(opts.Logger),
		monitor.WithScriptBudgets(opts.ScriptWallBudget, opts.ScriptMemBudget))
	if err != nil {
		return nil, fmt.Errorf("agent: create monitor: %w", err)
	}
	a.mon = mon

	a.svcRef = srv.Register(ServiceKey, "", opts.Servant)
	a.monRef = srv.Register(MonitorKey, "", monitor.NewServant(mon))

	if opts.ConfigScript != "" {
		if err := a.RunConfigScript(opts.ConfigScript); err != nil {
			return nil, err
		}
	}

	// Prime the monitor so the offer's dynamic properties have values.
	if err := mon.Tick(); err != nil {
		a.logf("agent: initial monitor tick: %v", err)
	}

	props := map[string]trading.PropValue{
		"LoadAvg":           {Dynamic: a.monRef, Aspect: monitor.Load1Aspect},
		"LoadAvgIncreasing": {Dynamic: a.monRef, Aspect: "Increasing"},
	}
	for k, v := range opts.StaticProps {
		props[k] = trading.PropValue{Static: v}
	}
	for k, v := range a.extraProps {
		props[k] = v
	}
	id, err := opts.Lookup.Export(ctx, opts.ServiceType, a.svcRef, props)
	if err != nil {
		return nil, fmt.Errorf("agent: export offer: %w", err)
	}
	a.offerID = id
	a.exportProps = props
	a.health.LastRenewal = opts.Clock.Now()
	if opts.LeaseTTL > 0 {
		a.hbStop = make(chan struct{})
		a.hbDone = make(chan struct{})
		go a.heartbeat(opts.LeaseTTL)
	}
	ok = true
	return a, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.opts.Logger != nil {
		a.opts.Logger.Printf(format, args...)
	}
}

// ServiceRef returns the exported service's object reference.
func (a *Agent) ServiceRef() wire.ObjRef { return a.svcRef }

// MonitorRef returns the load monitor's object reference.
func (a *Agent) MonitorRef() wire.ObjRef { return a.monRef }

// Monitor returns the agent's load monitor.
func (a *Agent) Monitor() *monitor.Monitor { return a.mon }

// OfferID returns the current offer id (it changes if the heartbeat had
// to re-export after a trader restart).
func (a *Agent) OfferID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.offerID
}

// Endpoint returns the agent's server endpoint.
func (a *Agent) Endpoint() string { return a.server.Endpoint() }

// configScriptCache is shared by every RunConfigScript interpreter in the
// process: each call builds a fresh sandbox (the injected primitives close
// over one agent), but identical remote-eval sources — the common case when
// one config is pushed to a fleet of agents hosted together — compile once.
// ChunkCache is concurrency-safe, so agents on different goroutines may hit
// it simultaneously.
var configScriptCache = script.NewChunkCache(64)

// RunConfigScript executes AdaptScript configuration code with these
// primitives, mirroring the paper's script-implemented agents:
//
//	defineaspect(name, code)   — add an aspect to the load monitor
//	setprop(name, value)       — add a static offer property
//	exportaspect(prop, aspect) — add a dynamic offer property served by
//	                             the monitor through the named aspect
//	log(message)               — agent diagnostics
func (a *Agent) RunConfigScript(src string) error {
	in := script.New(script.Options{
		Cache:      configScriptCache,
		WallBudget: a.opts.ScriptWallBudget,
		MemBudget:  a.opts.ScriptMemBudget,
	})
	in.SetGlobal("defineaspect", script.Func("defineaspect", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("defineaspect(name, code)")
		}
		return nil, a.mon.DefineAspect(args[0].Str(), args[1].Str())
	}))
	in.SetGlobal("setprop", script.Func("setprop", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("setprop(name, value)")
		}
		wv, err := args[1].ToWire()
		if err != nil {
			return nil, err
		}
		a.extraProps[args[0].Str()] = trading.PropValue{Static: wv}
		return nil, nil
	}))
	in.SetGlobal("exportaspect", script.Func("exportaspect", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("exportaspect(prop, aspect)")
		}
		a.extraProps[args[0].Str()] = trading.PropValue{Dynamic: a.monRef, Aspect: args[1].Str()}
		return nil, nil
	}))
	in.SetGlobal("log", script.Func("log", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) > 0 {
			a.logf("agent config: %s", args[0].ToString())
		}
		return nil, nil
	}))
	if _, err := in.Eval("agent-config", src); err != nil {
		return fmt.Errorf("agent: config script: %w", err)
	}
	return nil
}

// withdrawTimeout bounds the offer withdrawal during Close. The withdraw
// deliberately does not run under the caller's ctx: Close is most often
// called with an already-canceled or expiring context during teardown,
// and aborting the withdraw would strand a stale offer in the trader.
const withdrawTimeout = 2 * time.Second

// Close stops the heartbeat, withdraws the offer (bounded by its own
// short timeout, independent of ctx — see withdrawTimeout), and shuts
// everything down. It is idempotent and safe to call concurrently; late
// callers return nil once shutdown has begun.
func (a *Agent) Close(ctx context.Context) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	id := a.offerID
	a.offerID = ""
	hbStop, hbDone := a.hbStop, a.hbDone
	a.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	var err error
	if id != "" && a.opts.Lookup != nil {
		wctx, cancel := context.WithTimeout(context.Background(), withdrawTimeout)
		if werr := a.opts.Lookup.Withdraw(wctx, id); werr != nil {
			err = fmt.Errorf("agent: withdraw: %w", werr)
		}
		cancel()
	}
	a.shutdown()
	return err
}

func (a *Agent) shutdown() {
	if a.mon != nil {
		a.mon.Close()
	}
	if a.notify != nil {
		_ = a.notify.Close()
	}
	if a.server != nil {
		_ = a.server.Close()
	}
}
