// Package autoadapt is the top-level facade of the infrastructure for
// distributed auto-adaptive applications reproduced from "Dynamic Support
// for Distributed Auto-Adaptive Applications" (de Moura, Ururahy,
// Cerqueira, Rodriguez — ICDCS 2002 workshops).
//
// The building blocks live in the internal packages (see DESIGN.md for the
// full inventory):
//
//	internal/orb      — the object request broker (dynamic invocation,
//	                    dynamic servants, object references, oneway)
//	internal/script   — AdaptScript, the embedded interpreted language
//	internal/idl      — IDL-subset parser + interface repository
//	internal/trading  — trading service with dynamic properties
//	internal/monitor  — extensible monitors (aspects, event observers)
//	internal/core     — the smart proxy (the paper's contribution)
//	internal/agent    — service agents
//	internal/hostenv  — simulated hosts
//
// This package bundles them into the two roles a deployment has:
//
//	Trader side:  StartTrader runs a trading service daemon.
//	Client side:  Connect yields a Platform, from which applications
//	              create smart proxies bound to a service type.
//	Server side:  agent.Start (re-exported here as StartAgent) announces
//	              a servant with live load monitoring.
package autoadapt

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"autoadapt/internal/agent"
	"autoadapt/internal/core"
	"autoadapt/internal/idl"
	"autoadapt/internal/metrics"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/trading/shard"
	"autoadapt/internal/wire"
)

// Re-exported types: the public vocabulary of the facade.
type (
	// Value is a dynamically typed value exchanged through the ORB.
	Value = wire.Value
	// ObjRef names a remote object.
	ObjRef = wire.ObjRef
	// Network is a transport (TCP or in-process).
	Network = orb.Network
	// Servant is the dynamic skeleton interface. Over a connection its args
	// are borrowed until it returns: it keeps a string arg with wire.Keep.
	Servant = orb.Servant
	// ServantFunc adapts a function to Servant.
	ServantFunc = orb.ServantFunc
	// SmartProxy is the paper's smart proxy.
	SmartProxy = core.SmartProxy
	// ProxyOptions configures a smart proxy.
	ProxyOptions = core.Options
	// Watch declares an event subscription installed on selected servers.
	Watch = core.Watch
	// Strategy is an adaptation strategy.
	Strategy = core.Strategy
	// AgentOptions configures a service agent.
	AgentOptions = agent.Options
	// Agent is a running service agent.
	Agent = agent.Agent
	// ServiceType describes a traded service type.
	ServiceType = trading.ServiceType
	// PropValue is an offer property (static or dynamic).
	PropValue = trading.PropValue
	// QueryResult is one trader match.
	QueryResult = trading.QueryResult
	// MetricsRegistry collects counters, gauges, and latency histograms
	// from every instrumented layer (see internal/metrics).
	MetricsRegistry = metrics.Registry
)

// TCP is the production transport.
func TCP() Network { return orb.TCPNetwork{} }

// NewInprocNetwork returns an in-process transport for tests and
// single-process deployments.
func NewInprocNetwork() *orb.InprocNetwork { return orb.NewInprocNetwork() }

// NewMetricsRegistry returns an empty metrics registry to hand to
// TraderOptions.Metrics / ShardedTraderOptions.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// TraderOptions configures StartTrader.
type TraderOptions struct {
	// Network and Address to listen on. Required.
	Network Network
	Address string
	// Types registered at start.
	Types []ServiceType
	// CheckIDL, when true, loads the monitor/trader IDL into an interface
	// repository and type-checks inbound trader calls.
	CheckIDL bool
	// LeaseTTL, when positive, makes exported offers leases: an exporter
	// must renew within the TTL or the offer stops matching and is
	// eventually reaped. 0 (the default) keeps offers alive forever.
	LeaseTTL time.Duration
	// ReapInterval is how often expired offers are garbage-collected when
	// LeaseTTL is set. Default LeaseTTL/3.
	ReapInterval time.Duration
	// MaxConcurrent bounds the trader server's dispatch pool
	// (orb.ServerOptions.MaxConcurrent): 0 uses the ORB default; negative is
	// an error.
	MaxConcurrent int
	// ResolveTimeout caps the dynamic-property resolution phase of each
	// query so a wedged monitor cannot stall the trader (0 = only the
	// caller's deadline applies).
	ResolveTimeout time.Duration
	// Metrics, when non-nil, instruments the whole daemon — the trader
	// (query latency, lease churn, quarantine), its ORB server and resolver
	// client — and exposes the registry's text through the trader's
	// `metrics` operation (`adaptctl metrics`). Nil disables
	// instrumentation.
	Metrics *metrics.Registry
	// Logger for connection diagnostics.
	Logger *log.Logger
}

// TraderHandle is a running trading service.
type TraderHandle struct {
	Trader *trading.Trader
	Ref    ObjRef

	server     *orb.Server
	client     *orb.Client
	stopReaper func()
}

// StartTrader runs a trading service on the given transport. Dynamic
// properties are resolved through a client on the same transport.
func StartTrader(opts TraderOptions) (*TraderHandle, error) {
	if opts.Network == nil {
		return nil, errors.New("autoadapt: TraderOptions.Network is required")
	}
	client := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{opts.Network}, Metrics: opts.Metrics,
	})
	tr := trading.NewTrader(trading.ClientResolver{Client: client})
	tr.SetResolveTimeout(opts.ResolveTimeout)
	tr.SetMetrics(opts.Metrics)
	for _, st := range opts.Types {
		tr.AddType(st)
	}
	srv, ref, err := serveTrader(opts, trading.NewServant(tr))
	if err != nil {
		_ = client.Close()
		return nil, err
	}
	h := &TraderHandle{Trader: tr, Ref: ref, server: srv, client: client}
	h.stopReaper = startReaper(tr, opts.LeaseTTL, opts.ReapInterval)
	return h, nil
}

// metricsServant is a trader servant whose `metrics` operation can be
// armed; WithMetricsText returns the servant for chaining.
type metricsServant[S any] interface {
	orb.Servant
	WithMetricsText(fn func() string) S
}

// serveTrader starts a trader daemon's server: the monitor and trader IDL
// loaded into a repository that type-checks inbound calls when
// opts.CheckIDL is set, and servant registered at the well-known trader key
// with its `metrics` operation answering opts.Metrics' text when that is
// set. StartTrader and StartShardedTrader differ only in the servant.
func serveTrader[S metricsServant[S]](opts TraderOptions, servant S) (*orb.Server, ObjRef, error) {
	var repo *idl.Repository
	iface := ""
	if opts.CheckIDL {
		repo = idl.NewRepository()
		if err := repo.LoadIDL(monitor.IDL); err != nil {
			return nil, ObjRef{}, fmt.Errorf("autoadapt: load monitor IDL: %w", err)
		}
		if err := repo.LoadIDL(trading.InterfaceIDL); err != nil {
			return nil, ObjRef{}, fmt.Errorf("autoadapt: load trader IDL: %w", err)
		}
		iface = "Trader"
	}
	srv, err := orb.NewServer(orb.ServerOptions{
		Network: opts.Network, Address: opts.Address, Repo: repo, Logger: opts.Logger,
		MaxConcurrent: opts.MaxConcurrent, Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, ObjRef{}, err
	}
	if opts.Metrics != nil {
		servant.WithMetricsText(opts.Metrics.Text)
	}
	return srv, srv.Register(trading.DefaultObjectKey, iface, servant), nil
}

// startReaper makes tr's offers leases of ttl, garbage-collected every
// interval (default ttl/3), and returns the reaper's stop function. It
// returns nil, and leaves offers alive forever, when ttl is not positive.
func startReaper(tr *trading.Trader, ttl, interval time.Duration) func() {
	if ttl <= 0 {
		return nil
	}
	tr.SetLeaseTTL(ttl)
	if interval <= 0 {
		interval = ttl / 3
	}
	return tr.StartReaper(interval)
}

// Endpoint returns the trader's endpoint string.
func (t *TraderHandle) Endpoint() string { return t.server.Endpoint() }

// Close stops the trader (and its offer reaper, when leasing is on).
func (t *TraderHandle) Close() error {
	if t.stopReaper != nil {
		t.stopReaper()
	}
	err := t.server.Close()
	if cerr := t.client.Close(); err == nil {
		err = cerr
	}
	return err
}

// ShardedTraderOptions configures StartShardedTrader.
type ShardedTraderOptions struct {
	// Network and Address to listen on. Required.
	Network Network
	Address string
	// Shards is how many trader shards the offer space is partitioned
	// across. Default 4.
	Shards int
	// Types registered at start (broadcast to every shard).
	Types []ServiceType
	// CheckIDL type-checks inbound trader calls against the IDL.
	CheckIDL bool
	// LeaseTTL / ReapInterval: as in TraderOptions, applied per shard.
	// The router's ownership-handoff grace window is derived from
	// LeaseTTL so re-exports complete before an old owner is dropped.
	LeaseTTL     time.Duration
	ReapInterval time.Duration
	// MaxConcurrent and ResolveTimeout: as in TraderOptions, applied to
	// the ensemble's server and to every shard respectively.
	MaxConcurrent  int
	ResolveTimeout time.Duration
	// Metrics, when non-nil, instruments the ensemble: every shard shares
	// the registry (counters aggregate across shards; the
	// trading_offers/queries/exports gauges are re-registered as sums over
	// the shards), and the well-known servant answers the `metrics`
	// operation with the registry's text. Nil disables instrumentation.
	Metrics *metrics.Registry
	// Logger for connection and rebalancing diagnostics.
	Logger *log.Logger
}

// ShardedTraderHandle is a running sharded trading service: one process,
// N in-process trader shards behind the routing client, registered at the
// same well-known object key as a single trader.
type ShardedTraderHandle struct {
	// Router is the shard routing client (a trading.Directory).
	Router *shard.Router
	// Ref is the wire reference clients bind to — indistinguishable from
	// a single trader's.
	Ref ObjRef

	server   *orb.Server
	client   *orb.Client
	stoppers []func()
}

// StartShardedTrader partitions the offer space across opts.Shards
// in-process traders behind a shard.Router and serves the whole ensemble
// at the well-known trader key. Clients, agents, and smart proxies need
// no changes: Export/Query/Renew route to the owning shard server-side.
func StartShardedTrader(opts ShardedTraderOptions) (*ShardedTraderHandle, error) {
	if opts.Network == nil {
		return nil, errors.New("autoadapt: ShardedTraderOptions.Network is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	client := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{opts.Network}, Metrics: opts.Metrics,
	})
	h := &ShardedTraderHandle{client: client}
	fail := func(err error) (*ShardedTraderHandle, error) {
		_ = h.Close()
		return nil, err
	}

	dirs := make([]trading.Directory, opts.Shards)
	traders := make([]*trading.Trader, opts.Shards)
	for i := range dirs {
		tr := trading.NewTrader(trading.ClientResolver{Client: client})
		tr.SetResolveTimeout(opts.ResolveTimeout)
		tr.SetMetrics(opts.Metrics)
		if stop := startReaper(tr, opts.LeaseTTL, opts.ReapInterval); stop != nil {
			h.stoppers = append(h.stoppers, stop)
		}
		traders[i] = tr
		dirs[i] = trading.Local{T: tr}
	}
	grace := 30 * time.Second
	if opts.LeaseTTL > 0 {
		grace = 2 * opts.LeaseTTL
	}
	router, err := shard.NewRouter(shard.Options{
		Shards:       dirs,
		HandoffGrace: grace,
		Logger:       opts.Logger,
	})
	if err != nil {
		return fail(err)
	}
	h.Router = router
	ctx := context.Background()
	for _, st := range opts.Types {
		if err := router.AddType(ctx, st); err != nil {
			return fail(fmt.Errorf("autoadapt: register type %s: %w", st.Name, err))
		}
	}

	if reg := opts.Metrics; reg != nil {
		// Every shard's SetMetrics registered per-trader gauges under the
		// same names, each seeing only its own slice of the ensemble;
		// replace them with ensemble-wide sums. This must happen after
		// every shard's SetMetrics — GaugeFunc is last-wins on a duplicate
		// name, so a later per-trader registration would silently shadow
		// these.
		sum := func(field func(trading.TraderStats) int64) func() float64 {
			return func() float64 {
				var n int64
				for _, tr := range traders {
					n += field(tr.Stats())
				}
				return float64(n)
			}
		}
		reg.GaugeFunc("trading_offers", sum(func(s trading.TraderStats) int64 { return s.Offers }))
		reg.GaugeFunc("trading_queries", sum(func(s trading.TraderStats) int64 { return s.Queries }))
		reg.GaugeFunc("trading_scanned", sum(func(s trading.TraderStats) int64 { return s.Scanned }))
		reg.GaugeFunc("trading_candidates", sum(func(s trading.TraderStats) int64 { return s.Candidates }))
		reg.GaugeFunc("trading_exports", sum(func(s trading.TraderStats) int64 { return s.Exports }))
	}

	srv, ref, err := serveTrader(TraderOptions{
		Network: opts.Network, Address: opts.Address, CheckIDL: opts.CheckIDL,
		MaxConcurrent: opts.MaxConcurrent, Metrics: opts.Metrics, Logger: opts.Logger,
	}, shard.NewServant(router))
	if err != nil {
		return fail(err)
	}
	h.server, h.Ref = srv, ref
	return h, nil
}

// Endpoint returns the sharded trader's endpoint string.
func (t *ShardedTraderHandle) Endpoint() string { return t.server.Endpoint() }

// Close stops the server and every shard reaper.
func (t *ShardedTraderHandle) Close() error {
	for _, stop := range t.stoppers {
		stop()
	}
	var err error
	if t.server != nil {
		err = t.server.Close()
	}
	if cerr := t.client.Close(); err == nil {
		err = cerr
	}
	return err
}

// Platform is the client-side runtime: an ORB client and a lookup bound to
// a trader. It listens on nothing: smart proxies hear their events on push
// subscriptions over the client's own connections.
type Platform struct {
	Client *orb.Client
	Lookup *trading.Lookup
}

// Connect builds a Platform: it dials nothing eagerly and binds the lookup
// to traderRef.
func Connect(network Network, traderRef ObjRef) (*Platform, error) {
	if network == nil {
		return nil, errors.New("autoadapt: network is required")
	}
	client := orb.NewClient(network)
	return &Platform{Client: client, Lookup: trading.NewLookup(client, traderRef)}, nil
}

// NewSmartProxy creates a smart proxy wired to the platform. The caller
// sets ServiceType/Constraint/Preference/Watches on opts; Client and Lookup
// are filled in.
func (p *Platform) NewSmartProxy(opts ProxyOptions) (*SmartProxy, error) {
	opts.Client = p.Client
	opts.Lookup = p.Lookup
	return core.New(opts)
}

// Close tears the platform down.
func (p *Platform) Close() error { return p.Client.Close() }

// StartAgent announces a servant through a service agent (see
// internal/agent for the full option set).
func StartAgent(ctx context.Context, opts AgentOptions) (*Agent, error) {
	return agent.Start(ctx, opts)
}
