package trading

import (
	"context"

	"autoadapt/internal/wire"
)

// Directory is the client-facing surface of the trading service: everything
// an agent, a smart proxy, or a baseline client needs from a trader. It is
// implemented by *Lookup (one remote trader), by Local (an in-process
// trader), and by the sharded routing client (internal/trading/shard), so
// distribution policy — one trader or many shards — is decoupled
// from the components that use it.
type Directory interface {
	// Query finds offers of serviceType matching constraint, ordered by
	// preference (see Trader.Query).
	Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error)
	// Export registers an offer and returns its offer id.
	Export(ctx context.Context, serviceType string, ref wire.ObjRef, props map[string]PropValue) (string, error)
	// Withdraw removes an offer by id.
	Withdraw(ctx context.Context, offerID string) error
	// Modify replaces an offer's properties.
	Modify(ctx context.Context, offerID string, props map[string]PropValue) error
	// Renew extends an offer's lease; ErrUnknownOffer (wrapped) means the
	// exporter must re-export from scratch.
	Renew(ctx context.Context, offerID string) error
	// AddType registers a service type.
	AddType(ctx context.Context, st ServiceType) error
}

var _ Directory = (*Lookup)(nil)
var _ Directory = Local{}

// Local adapts an in-process *Trader to the Directory interface, so code
// written against Directory (the shard router, tests, single-process
// deployments) can talk to a trader without an ORB hop.
type Local struct{ T *Trader }

// Query implements Directory.
func (l Local) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
	return l.T.Query(ctx, serviceType, constraint, preference, maxResults)
}

// Export implements Directory.
func (l Local) Export(_ context.Context, serviceType string, ref wire.ObjRef, props map[string]PropValue) (string, error) {
	return l.T.Export(serviceType, ref, props)
}

// Withdraw implements Directory.
func (l Local) Withdraw(_ context.Context, offerID string) error { return l.T.Withdraw(offerID) }

// Modify implements Directory.
func (l Local) Modify(_ context.Context, offerID string, props map[string]PropValue) error {
	return l.T.Modify(offerID, props)
}

// Renew implements Directory.
func (l Local) Renew(_ context.Context, offerID string) error { return l.T.Renew(offerID) }

// AddType implements Directory.
func (l Local) AddType(_ context.Context, st ServiceType) error {
	l.T.AddType(st)
	return nil
}

// Stats implements StatsProvider.
func (l Local) Stats(context.Context) (TraderStats, error) { return l.T.Stats(), nil }

// StatsProvider is the optional Directory extension exposing a trader's
// load instrumentation. The shard router's Probe polls it as a liveness
// heartbeat.
type StatsProvider interface {
	Stats(ctx context.Context) (TraderStats, error)
}

// SortByPreference re-sorts results by preference. The shard router uses it
// to merge preference-ordered result streams from several shards back into
// one globally ordered list; per-offer snapshots already hold the values
// the preference references, so no re-resolution happens.
func SortByPreference(preference string, results []QueryResult) error {
	pref, err := cachedPreference(preference)
	if err != nil {
		return err
	}
	return pref.Sort(results)
}
