package shard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// ErrNoShards is returned when every shard is dead (or none was configured).
var ErrNoShards = errors.New("shard: no live trader shards")

// Options configures a Router.
type Options struct {
	// Shards are the shard primaries, one Directory per shard. Required,
	// at least one. Use trading.Local for in-process shards and
	// *trading.Lookup for remote ones.
	Shards []trading.Directory
	// Names give each shard its stable hashing identity. Ownership must
	// not depend on slice order, so reconfigurations that renumber shards
	// keep their type assignments. Defaults to "shard0", "shard1", ...
	Names []string
	// HandoffGrace is how long queries also consult a type's previous
	// owner after ownership moves between two live shards (a shard
	// rejoining after a death). It should cover one offer lease TTL so
	// agents have renewed-or-re-exported before the old owner is dropped.
	// Default 30s.
	HandoffGrace time.Duration
	// Clock stamps handoff grace windows. Default the real clock.
	Clock clock.Clock
	// Logger receives reassignment and failure diagnostics. Nil discards.
	Logger *log.Logger
}

// Stats counts a Router's activity.
type Stats struct {
	// Queries counts Query calls.
	Queries int64
	// Reassigns counts type-ownership moves.
	Reassigns int64
	// ShardStrikes counts transport faults charged against shard
	// primaries.
	ShardStrikes int64
	// HandoffMerges counts queries that consulted a previous owner during
	// a handoff grace window.
	HandoffMerges int64
	// MigratedRenews counts renews answered with ErrUnknownOffer because
	// ownership moved, forcing the exporter to re-export at the new owner.
	MigratedRenews int64
	// ProbeFails counts per-shard liveness polls (Probe) that ended in an
	// error.
	ProbeFails int64
}

// counters is the live (atomic) form of Stats: the query hot path bumps
// these without touching the router lock.
type counters struct {
	queries, reassigns, strikes, handoffs, migrated, probeFails atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Queries:        c.queries.Load(),
		Reassigns:      c.reassigns.Load(),
		ShardStrikes:   c.strikes.Load(),
		HandoffMerges:  c.handoffs.Load(),
		MigratedRenews: c.migrated.Load(),
		ProbeFails:     c.probeFails.Load(),
	}
}

// shardState is the router's view of one shard.
type shardState struct {
	name    string
	primary trading.Directory
	alive   bool
}

// typeRoute is the ownership record for one service type.
type typeRoute struct {
	owner     int
	prev      int       // previous owner still consulted during handoff; -1 none
	prevUntil time.Time // end of the handoff grace window
}

// Router is the thin shard-aware routing client. It implements
// trading.Directory, so agents, smart proxies and baselines work against
// a sharded trader unchanged.
type Router struct {
	opts Options
	cnt  counters

	mu     sync.RWMutex
	shards []*shardState
	routes map[string]*typeRoute
	types  map[string]trading.ServiceType // types registered through AddType
	// exported remembers the service type of offers exported through this
	// router (the exporter's own offers), so Renew can detect that
	// ownership moved and force a re-export at the new owner.
	exported map[string]string
}

var _ trading.Directory = (*Router)(nil)

// NewRouter builds a Router over the given shard primaries.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("shard: Options.Shards is required")
	}
	if len(opts.Names) == 0 {
		opts.Names = make([]string, len(opts.Shards))
		for i := range opts.Shards {
			opts.Names[i] = "shard" + strconv.Itoa(i)
		}
	}
	if len(opts.Names) != len(opts.Shards) {
		return nil, fmt.Errorf("shard: %d names for %d shards", len(opts.Names), len(opts.Shards))
	}
	if opts.HandoffGrace <= 0 {
		opts.HandoffGrace = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	r := &Router{
		opts:     opts,
		routes:   make(map[string]*typeRoute),
		types:    make(map[string]trading.ServiceType),
		exported: make(map[string]string),
	}
	for i, d := range opts.Shards {
		r.shards = append(r.shards, &shardState{
			name:    opts.Names[i],
			primary: d,
			alive:   true,
		})
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logger != nil {
		r.opts.Logger.Printf(format, args...)
	}
}

// Stats returns a snapshot of the router's activity counters.
func (r *Router) Stats() Stats { return r.cnt.snapshot() }

// NumShards reports the configured shard count.
func (r *Router) NumShards() int { return len(r.opts.Shards) }

// ShardName reports the stable name of shard i.
func (r *Router) ShardName(i int) string { return r.opts.Names[i] }

// Alive reports whether shard i is currently considered live.
func (r *Router) Alive(i int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[i].alive
}

// Owner reports the shard currently owning serviceType (-1 when no shard
// is alive).
func (r *Router) Owner(serviceType string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rt, ok := r.routes[serviceType]; ok {
		return rt.owner
	}
	return r.ownerLocked(serviceType)
}

// KnownTypes returns the service types registered through AddType.
func (r *Router) KnownTypes() []trading.ServiceType {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]trading.ServiceType, 0, len(r.types))
	for _, st := range r.types {
		out = append(out, st)
	}
	return out
}

// ownerLocked computes the HRW owner over live shards. Callers hold r.mu
// (either mode).
func (r *Router) ownerLocked(serviceType string) int {
	return owner(serviceType, r.opts.Names, func(i int) bool { return r.shards[i].alive })
}

// route returns serviceType's current owner and, when a handoff grace
// window is open, the previous owner to merge with (-1 otherwise). A type
// with no ownership record yet (recorded false) is routed without one.
func (r *Router) route(serviceType string) (ownerIdx, prevIdx int, recorded bool, err error) {
	r.mu.RLock()
	rt, recorded := r.routes[serviceType]
	if recorded {
		ownerIdx, prevIdx = rt.owner, rt.prev
	} else {
		ownerIdx, prevIdx = r.ownerLocked(serviceType), -1
	}
	expired := prevIdx >= 0 && r.opts.Clock.Now().After(rt.prevUntil)
	r.mu.RUnlock()
	if expired {
		prevIdx = -1
		r.clearPrev(serviceType)
	}
	if ownerIdx < 0 {
		return -1, -1, recorded, ErrNoShards
	}
	return ownerIdx, prevIdx, recorded, nil
}

// keepRouteLocked records serviceType's ownership, which membership changes
// then hand off, once the type is known to exist: on AddType, on an export
// and on its owner's answer to a query. A record for every name queried
// would let any client grow the map without bound. Callers hold r.mu.
func (r *Router) keepRouteLocked(serviceType string) {
	if _, ok := r.routes[serviceType]; ok {
		return
	}
	if own := r.ownerLocked(serviceType); own >= 0 {
		r.routes[wire.Keep(serviceType)] = &typeRoute{owner: own, prev: -1}
	}
}

// clearPrev lazily retires an expired handoff grace window.
func (r *Router) clearPrev(serviceType string) {
	r.mu.Lock()
	if rt, ok := r.routes[serviceType]; ok && rt.prev >= 0 && r.opts.Clock.Now().After(rt.prevUntil) {
		rt.prev = -1
	}
	r.mu.Unlock()
}

// Offer ids crossing the router are shard-qualified — "s2/offer-7" — so
// offer-keyed operations route without a directory lookup.

func (r *Router) qualify(shard int, id string) string {
	return "s" + strconv.Itoa(shard) + "/" + id
}

// splitOfferID parses a shard-qualified offer id. Unqualified ids (offers
// not exported through a router) report ok=false.
func (r *Router) splitOfferID(id string) (shard int, rest string, ok bool) {
	if len(id) < 3 || id[0] != 's' {
		return 0, "", false
	}
	slash := strings.IndexByte(id, '/')
	if slash < 2 {
		return 0, "", false
	}
	n, err := strconv.Atoi(id[1:slash])
	if err != nil || n < 0 || n >= len(r.opts.Names) {
		return 0, "", false
	}
	return n, id[slash+1:], true
}

// noteFault charges one transport fault against shard idx's primary, which
// marks the shard dead and reassigns its types: faults that reach the
// router have already exhausted the ORB client's retries and breaker, so one
// strike is decisive. Non-transport errors (application errors) prove the
// shard alive; context expiry indicts the caller and counts neither way.
func (r *Router) noteFault(idx int, err error) {
	switch {
	case orb.FaultOf(err) == orb.Abandoned:
		return
	case !transportFault(err):
		r.noteOK(idx)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shards[idx]
	r.cnt.strikes.Add(1)
	if s.alive {
		s.alive = false
		r.logf("shard: %s marked dead (%v)", s.name, err)
		r.reassignLocked()
	}
}

// noteOK revives shard idx if it was dead (Probe's liveness poll succeeded
// again). The steady state — alive — returns without the write lock.
func (r *Router) noteOK(idx int) {
	if r.Alive(idx) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.shards[idx]; !s.alive {
		s.alive = true
		r.logf("shard: %s rejoined", s.name)
		r.reassignLocked()
	}
}

// reassignLocked recomputes every known type's owner after a membership
// change. A type moving between two live shards (rejoin) keeps its previous
// owner in the query set for HandoffGrace; a type leaving a dead shard has
// nothing worth consulting there.
func (r *Router) reassignLocked() {
	now := r.opts.Clock.Now()
	for st, rt := range r.routes {
		newOwner := r.ownerLocked(st)
		if newOwner == rt.owner {
			continue
		}
		from := rt.owner
		if from >= 0 && r.shards[from].alive {
			rt.prev, rt.prevUntil = from, now.Add(r.opts.HandoffGrace)
		} else {
			rt.prev = -1
		}
		rt.owner = newOwner
		r.cnt.reassigns.Add(1)
		r.logf("shard: type %q reassigned %d -> %d", st, from, newOwner)
	}
}

// Query implements trading.Directory: the query goes straight to the
// owning shard; during a handoff grace window the previous owner is
// consulted too and the merged results re-sorted by preference.
func (r *Router) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]trading.QueryResult, error) {
	r.cnt.queries.Add(1)
	own, prev, recorded, err := r.route(serviceType)
	if err != nil {
		return nil, err
	}
	rs, err := r.queryShard(ctx, own, serviceType, constraint, preference, maxResults)
	if err != nil {
		// The owner is unreachable: it has been marked dead and ownership
		// reassigned. Answer from the new owner — the offers reappear
		// there as agents re-export.
		if own2, _, _, rerr := r.route(serviceType); rerr == nil && own2 != own {
			r.logf("shard: query %q rerouted to %s after %v", serviceType, r.opts.Names[own2], err)
			return r.queryShard(ctx, own2, serviceType, constraint, preference, maxResults)
		}
		return nil, err
	}
	if !recorded {
		r.mu.Lock()
		r.keepRouteLocked(serviceType)
		r.mu.Unlock()
	}
	if prev < 0 || prev == own {
		return rs, nil
	}
	// Handoff: merge with the previous owner's view so offers that have
	// not migrated yet stay visible. The previous owner failing is not
	// fatal — the current owner answered.
	r.cnt.handoffs.Add(1)
	prs, perr := r.queryShard(ctx, prev, serviceType, constraint, preference, maxResults)
	if perr != nil {
		return rs, nil
	}
	return mergeResults(preference, maxResults, rs, prs)
}

// queryShard runs one query against shard idx's primary and charges the
// outcome to the shard.
func (r *Router) queryShard(ctx context.Context, idx int, serviceType, constraint, preference string, maxResults int) ([]trading.QueryResult, error) {
	rs, err := r.shards[idx].primary.Query(ctx, serviceType, constraint, preference, maxResults)
	r.noteFault(idx, err)
	return rs, err
}

// mergeResults merges the preference-ordered result lists of a type's
// current and previous owner into one globally ordered list, deduplicating
// by object reference (an offer mid-migration may briefly exist on both
// owners).
func mergeResults(preference string, maxResults int, lists ...[]trading.QueryResult) ([]trading.QueryResult, error) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]trading.QueryResult, 0, total)
	seen := make(map[wire.ObjRef]bool, total)
	for _, l := range lists {
		for _, qr := range l {
			if seen[qr.Offer.Ref] {
				continue
			}
			seen[qr.Offer.Ref] = true
			merged = append(merged, qr)
		}
	}
	if err := trading.SortByPreference(preference, merged); err != nil {
		return nil, err
	}
	if maxResults > 0 && len(merged) > maxResults {
		merged = merged[:maxResults]
	}
	return merged, nil
}

// Export implements trading.Directory: the offer lands on the type's
// owning shard and the returned id is shard-qualified. If the owner dies
// mid-export the router retries once on the reassigned owner.
func (r *Router) Export(ctx context.Context, serviceType string, ref wire.ObjRef, props map[string]trading.PropValue) (string, error) {
	for attempt := 0; ; attempt++ {
		own, _, _, err := r.route(serviceType)
		if err != nil {
			return "", err
		}
		id, err := r.shards[own].primary.Export(ctx, serviceType, ref, props)
		if err == nil {
			r.noteOK(own)
			qid := r.qualify(own, id)
			r.mu.Lock()
			r.exported[qid] = serviceType
			r.keepRouteLocked(serviceType)
			r.mu.Unlock()
			return qid, nil
		}
		r.noteFault(own, err)
		if attempt > 0 || !transportFault(err) {
			return "", err
		}
		if own2, _, _, rerr := r.route(serviceType); rerr != nil || own2 == own {
			return "", err
		}
	}
}

// Withdraw implements trading.Directory.
func (r *Router) Withdraw(ctx context.Context, offerID string) error {
	idx, rest, ok := r.splitOfferID(offerID)
	if !ok {
		return fmt.Errorf("%w: %q (not a shard-qualified offer id)", trading.ErrUnknownOffer, offerID)
	}
	r.mu.Lock()
	delete(r.exported, offerID)
	alive := r.shards[idx].alive
	r.mu.Unlock()
	if !alive {
		// The shard is gone and the offer's lease with it; by the trader's
		// contract the offer is already unknown.
		return fmt.Errorf("%w: %q (shard %s is down)", trading.ErrUnknownOffer, offerID, r.opts.Names[idx])
	}
	err := r.shards[idx].primary.Withdraw(ctx, rest)
	r.noteFault(idx, err)
	return err
}

// Modify implements trading.Directory.
func (r *Router) Modify(ctx context.Context, offerID string, props map[string]trading.PropValue) error {
	idx, rest, ok := r.splitOfferID(offerID)
	if !ok {
		return fmt.Errorf("%w: %q (not a shard-qualified offer id)", trading.ErrUnknownOffer, offerID)
	}
	r.mu.RLock()
	alive := r.shards[idx].alive
	r.mu.RUnlock()
	if !alive {
		return fmt.Errorf("%w: %q (shard %s is down)", trading.ErrUnknownOffer, offerID, r.opts.Names[idx])
	}
	err := r.shards[idx].primary.Modify(ctx, rest, props)
	r.noteFault(idx, err)
	return err
}

// Renew implements trading.Directory. Beyond plain lease renewal it is the
// ownership-handoff trigger: when the offer's shard is dead, or ownership
// of the offer's type has moved off the shard that holds it, Renew answers
// ErrUnknownOffer so the exporter's heartbeat re-exports the offer — which
// Export then routes to the current owner. This is how offers migrate
// after shard churn without any dedicated transfer protocol.
func (r *Router) Renew(ctx context.Context, offerID string) error {
	idx, rest, ok := r.splitOfferID(offerID)
	if !ok {
		return fmt.Errorf("%w: %q (not a shard-qualified offer id)", trading.ErrUnknownOffer, offerID)
	}
	r.mu.RLock()
	alive := r.shards[idx].alive
	serviceType, known := r.exported[offerID]
	r.mu.RUnlock()
	if !alive {
		return fmt.Errorf("%w: %q (shard %s is down)", trading.ErrUnknownOffer, offerID, r.opts.Names[idx])
	}
	if known {
		if own, _, _, err := r.route(serviceType); err == nil && own != idx {
			// Ownership moved while the offer stayed put. Retire the old
			// copy (best effort — its lease would expire anyway) and make
			// the exporter re-export at the new owner.
			_ = r.shards[idx].primary.Withdraw(ctx, rest)
			r.mu.Lock()
			delete(r.exported, offerID)
			r.mu.Unlock()
			r.cnt.migrated.Add(1)
			return fmt.Errorf("%w: %q (type %q reassigned to %s)",
				trading.ErrUnknownOffer, offerID, serviceType, r.opts.Names[own])
		}
	}
	err := r.shards[idx].primary.Renew(ctx, rest)
	r.noteFault(idx, err)
	if err != nil && transportFault(err) && !r.Alive(idx) {
		// The renew killed the shard: translate to the re-export signal.
		return fmt.Errorf("%w: %q (shard %s died: %v)", trading.ErrUnknownOffer, offerID, r.opts.Names[idx], err)
	}
	return err
}

// AddType implements trading.Directory: service types are broadcast to
// every shard (ownership can move to any of them) and remembered. Dead
// shards are skipped; Probe re-primes them when they rejoin.
func (r *Router) AddType(ctx context.Context, st trading.ServiceType) error {
	r.mu.Lock()
	r.types[st.Name] = st
	r.keepRouteLocked(st.Name)
	r.mu.Unlock()
	var firstErr error
	for i, s := range r.shards {
		if !r.Alive(i) {
			continue
		}
		if err := s.primary.AddType(ctx, st); err != nil {
			r.noteFault(i, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Probe polls every shard primary's stats operation once, as a liveness
// heartbeat: a transport fault marks the shard dead exactly as a failed
// client call would, and a dead shard that answers again rejoins. The
// rejoining shard may have restarted empty, so every known service type is
// registered on it first — otherwise it would take its types back and then
// refuse their exports. Shards that are no trading.StatsProvider are not
// probed.
func (r *Router) Probe(ctx context.Context) {
	for i, s := range r.shards {
		sp, ok := s.primary.(trading.StatsProvider)
		if !ok {
			continue
		}
		_, err := sp.Stats(ctx)
		if err == nil && !r.Alive(i) {
			for _, st := range r.KnownTypes() {
				if err = s.primary.AddType(ctx, st); err != nil {
					break
				}
			}
		}
		if err != nil {
			r.cnt.probeFails.Add(1)
		}
		r.noteFault(i, err)
	}
}

// StartProbe runs Probe every interval (default 2s) on Options.Clock, each
// tick bounded by interval, until the returned stop function is called; see
// clock.Every. It is meant for routers over remote primaries
// (*trading.Lookup); in-process shards cannot transport-fault.
func (r *Router) StartProbe(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return clock.Every(r.opts.Clock, interval, func() {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		defer cancel()
		r.Probe(ctx)
	})
}

// transportFault reports whether err indicts the shard's transport rather
// than the caller or the application (see orb.Fault). An answer, a trading
// sentinel from an in-process shard (Unknown) and the caller's own expiry
// all prove the shard functioning, so they never strike a healthy shard.
func transportFault(err error) bool {
	return orb.FaultOf(err).In(orb.Refused, orb.Unreachable, orb.Lost)
}
