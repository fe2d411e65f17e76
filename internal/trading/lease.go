package trading

import (
	"context"
	"fmt"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/strikes"
)

// Offer liveness: leases, the reaper, and quarantine.
//
// The paper's trader assumes exported offers describe live services, but a
// crashed or partitioned agent leaves its offer registered forever and
// every query keeps returning a dead object ref. This file makes offers
// *leases*: an exporter must renew its offer within the lease TTL or the
// offer stops matching (lazily, the moment the lease is past due) and is
// eventually deleted by the reaper. Independently, offers whose dynamic
// properties fail to resolve on strikes.Limit consecutive queries are
// *quarantined* — kept registered, still probed, but excluded from query
// results until a resolution succeeds or the exporter renews.
//
// Expiry is enforced in two layers so correctness never depends on reaper
// scheduling: Query, OfferCount, Modify, and Withdraw all check the lease
// against the trader's clock on every call (lazy expiry), while the reaper
// goroutine merely garbage-collects records that stayed expired. Renewing
// an expired-but-unreaped offer resurrects it deterministically — the
// record, its ID, and its properties are exactly as before expiry.

// offerRecord is the trader's bookkeeping around one exported Offer: its
// properties by slot, its export sequence number (the sort key of
// Trader.byType), the lease deadline and the quarantine strikes. All
// fields are guarded by Trader.mu; seq and the offer's fields are immutable
// after export, and the offer's Props stays nil — props holds them.
type offerRecord struct {
	offer   Offer
	props   slotProps
	seq     int
	expires time.Time     // lease deadline; zero = no lease
	strikes strikes.Count // consecutive queries with failed resolutions; Out = quarantined
	gone    bool          // withdrawn or reaped; a query may still hold the record
}

// expired reports whether the record's lease is past due at now. Records
// without a lease never expire.
func (r *offerRecord) expired(now time.Time) bool {
	return !r.expires.IsZero() && !now.Before(r.expires)
}

// SetClock replaces the trader's time source (default clock.Real{}).
// Call it before exporting offers and before StartReaper, which reads the
// clock once; tests use a clock.Sim to drive lease expiry deterministically.
func (t *Trader) SetClock(c clock.Clock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clk = c
}

// SetLeaseTTL sets the lease granted to offers by Export and Renew.
// 0 (the default) disables leasing: offers live until withdrawn. Changing
// the TTL affects subsequent exports and renewals only; existing leases
// keep their deadlines.
func (t *Trader) SetLeaseTTL(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t.leaseTTL = d
}

// LeaseTTL reports the current lease TTL (0 = leasing disabled).
func (t *Trader) LeaseTTL() time.Duration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.leaseTTL
}

// Renew extends the lease of an offer by the trader's lease TTL from now,
// clears its quarantine state, and resurrects it if it had expired but was
// not yet reaped. Renewing an offer the trader does not know (never
// exported, withdrawn, or already reaped) reports ErrUnknownOffer — the
// exporter must re-export from scratch.
func (t *Trader) Renew(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.offers[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, id)
	}
	if t.leaseTTL > 0 {
		rec.expires = t.clk.Now().Add(t.leaseTTL)
	} else {
		rec.expires = time.Time{}
	}
	if tm := t.tm.Load(); tm != nil {
		tm.renewals.Inc()
		if rec.strikes.Out() {
			tm.rehabilitated.Inc()
		}
	}
	rec.strikes.Reset()
	return nil
}

// Quarantined reports whether the offer exists and is currently
// quarantined (for diagnostics/tests).
func (t *Trader) Quarantined(id string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rec, ok := t.offers[id]
	return ok && rec.strikes.Out()
}

// Reap deletes every offer whose lease is past due and returns how many
// were removed. Queries already ignore expired offers, so Reap is pure
// garbage collection; it is exported for tests and manual housekeeping —
// production traders run StartReaper instead.
func (t *Trader) Reap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clk.Now()
	n := 0
	for typ, list := range t.byType {
		kept := list[:0]
		for _, rec := range list {
			if rec.expired(now) {
				rec.gone = true
				delete(t.offers, rec.offer.ID)
				n++
			} else {
				kept = append(kept, rec)
			}
		}
		if len(kept) < len(list) {
			clear(list[len(kept):])
			t.byType[typ] = kept
		}
	}
	if tm := t.tm.Load(); tm != nil && n > 0 {
		tm.reaped.Add(uint64(n))
	}
	return n
}

// StartReaper runs Reap every interval (default 1s) on the trader's clock
// until the returned stop function is called; see clock.Every.
func (t *Trader) StartReaper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	t.mu.RLock()
	clk := t.clk
	t.mu.RUnlock()
	return clock.Every(clk, interval, func() { t.Reap() })
}

// noteResolveOutcomes folds one query's per-offer resolution outcomes into
// the quarantine strikes: a query in which every attempted resolution of
// an offer answered rehabilitates it (strikes reset, quarantine lifted),
// while a query with at least one failed resolution is a strike against it
// and quarantines it at strikes.Limit. Queries that resolved nothing for an
// offer leave its state untouched, as does a query whose ctx was canceled
// (the failures indict the caller, not the monitors).
func (t *Trader) noteResolveOutcomes(ctx context.Context, candidates []offerView, outcomes []resolveOutcome) {
	// Check under the read lock first and upgrade only when some record
	// actually needs mutating. In the steady state — healthy monitors, no
	// strikes to reset — every outcome is resolveAllOK against records
	// already at zero strikes, so hot read-only queries never serialize on
	// the trader's write lock.
	t.mu.RLock()
	dirty := false
	if ctx.Err() == nil {
		for i := range candidates {
			switch outcomes[i] {
			case resolveSomeFailed:
				dirty = true
			case resolveAllOK:
				if rec := candidates[i].rec; !rec.gone && rec.strikes != 0 {
					dirty = true
				}
			}
			if dirty {
				break
			}
		}
	}
	t.mu.RUnlock()
	if !dirty {
		return // nothing to record: no liveness evidence, no write lock
	}
	tm := t.tm.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range candidates {
		rec := candidates[i].rec
		if rec.gone {
			continue // withdrawn or reaped mid-query
		}
		switch outcomes[i] {
		case resolveAllOK:
			if tm != nil && rec.strikes.Out() {
				tm.rehabilitated.Inc()
			}
			rec.strikes.Reset()
		case resolveSomeFailed:
			if rec.strikes.Fail() && tm != nil {
				tm.quarantined.Inc()
			}
		}
	}
}
