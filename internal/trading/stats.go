package trading

import (
	"context"
	"errors"

	"autoadapt/internal/wire"
)

var errStatsReply = errors.New("trading: stats reply is not a table")

// Per-trader load instrumentation. The counters are cumulative and lock-free
// (the query hot path touches two atomics); consumers that want rates poll
// Stats periodically and difference successive snapshots.

// TraderStats is a snapshot of one trader's activity counters.
type TraderStats struct {
	// Queries is the number of Query calls served (successful or not).
	Queries int64
	// Exports counts successful offer exports.
	Exports int64
	// QueryNanos is the total wall-clock time spent inside Query, in
	// nanoseconds. QueryNanos/Queries is the mean query latency.
	QueryNanos int64
	// Offers is the current live offer count (lease-aware).
	Offers int64
	// Scanned counts the offer records Query visited to find its candidates,
	// and Candidates those whose lease had not expired, before the static
	// pass drops any. The per-type index makes them differ only by
	// expired-but-unreaped records.
	Scanned    int64
	Candidates int64
}

// Stats returns a snapshot of the trader's activity counters.
func (t *Trader) Stats() TraderStats {
	return TraderStats{
		Queries:    t.statQueries.Load(),
		Exports:    t.statExports.Load(),
		QueryNanos: t.statQueryNanos.Load(),
		Offers:     int64(t.OfferCount()),
		Scanned:    t.statScanned.Load(),
		Candidates: t.statCandidates.Load(),
	}
}

// statsToWire encodes a TraderStats snapshot for the servant's stats op.
func statsToWire(s TraderStats) wire.Value {
	tb := wire.NewTable()
	tb.SetString("queries", wire.Int(int(s.Queries)))
	tb.SetString("exports", wire.Int(int(s.Exports)))
	tb.SetString("querynanos", wire.Int(int(s.QueryNanos)))
	tb.SetString("offers", wire.Int(int(s.Offers)))
	tb.SetString("scanned", wire.Int(int(s.Scanned)))
	tb.SetString("candidates", wire.Int(int(s.Candidates)))
	return wire.TableVal(tb)
}

// statsFromWire decodes the servant's stats reply. A key the peer does not
// send (an older trader knows no scanned/candidates) reads as 0.
func statsFromWire(v wire.Value) (TraderStats, error) {
	tb, ok := v.AsTable()
	if !ok {
		return TraderStats{}, errStatsReply
	}
	return TraderStats{
		Queries:    int64(tb.GetString("queries").Num()),
		Exports:    int64(tb.GetString("exports").Num()),
		QueryNanos: int64(tb.GetString("querynanos").Num()),
		Offers:     int64(tb.GetString("offers").Num()),
		Scanned:    int64(tb.GetString("scanned").Num()),
		Candidates: int64(tb.GetString("candidates").Num()),
	}, nil
}

// Stats fetches the remote trader's activity counters (the stats op).
func (l *Lookup) Stats(ctx context.Context) (TraderStats, error) {
	v, err := l.proxy.Call1(ctx, "stats")
	if err != nil {
		return TraderStats{}, err
	}
	return statsFromWire(v)
}
