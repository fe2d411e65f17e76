package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// countOffers reports how many live offers of st trader tr holds, via a
// plain query (unknown type counts as zero — AddType may not have reached
// this trader).
func countOffers(t *testing.T, tr *trading.Trader, st string) int {
	t.Helper()
	rs, err := trading.Local{T: tr}.Query(context.Background(), st, "", "", 0)
	if err != nil {
		if errors.Is(err, trading.ErrUnknownServiceType) {
			return 0
		}
		t.Fatal(err)
	}
	return len(rs)
}

func svcRef(i int) wire.ObjRef {
	return wire.ObjRef{Endpoint: "inproc|svc", Key: fmt.Sprintf("svc-%d", i)}
}

// flakyDir wraps a Directory with a kill switch: while down, every call
// fails with a transport fault (orb.ErrClosed), like a severed trader.
type flakyDir struct {
	mu    sync.Mutex
	inner trading.Local
	down  bool
}

func (f *flakyDir) setDown(d bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = d
}

// restartEmpty replaces the trader behind the shard with a fresh one, like
// a trader process that lost its state across a restart.
func (f *flakyDir) restartEmpty() *trading.Trader {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inner = trading.Local{T: trading.NewTrader(nil)}
	return f.inner.T
}

func (f *flakyDir) dir() (trading.Local, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return trading.Local{}, fmt.Errorf("flaky: %w", orb.ErrClosed)
	}
	return f.inner, nil
}

func (f *flakyDir) Query(ctx context.Context, st, c, p string, max int) ([]trading.QueryResult, error) {
	d, err := f.dir()
	if err != nil {
		return nil, err
	}
	return d.Query(ctx, st, c, p, max)
}

func (f *flakyDir) Export(ctx context.Context, st string, ref wire.ObjRef, props map[string]trading.PropValue) (string, error) {
	d, err := f.dir()
	if err != nil {
		return "", err
	}
	return d.Export(ctx, st, ref, props)
}

func (f *flakyDir) Withdraw(ctx context.Context, id string) error {
	d, err := f.dir()
	if err != nil {
		return err
	}
	return d.Withdraw(ctx, id)
}

func (f *flakyDir) Modify(ctx context.Context, id string, props map[string]trading.PropValue) error {
	d, err := f.dir()
	if err != nil {
		return err
	}
	return d.Modify(ctx, id, props)
}

func (f *flakyDir) Renew(ctx context.Context, id string) error {
	d, err := f.dir()
	if err != nil {
		return err
	}
	return d.Renew(ctx, id)
}

func (f *flakyDir) AddType(ctx context.Context, st trading.ServiceType) error {
	d, err := f.dir()
	if err != nil {
		return err
	}
	return d.AddType(ctx, st)
}

func (f *flakyDir) Stats(ctx context.Context) (trading.TraderStats, error) {
	d, err := f.dir()
	if err != nil {
		return trading.TraderStats{}, err
	}
	return d.Stats(ctx)
}

// newCluster builds n in-process shards behind a router.
func newCluster(t *testing.T, n int, opts Options) (*Router, []*trading.Trader, []*flakyDir) {
	t.Helper()
	traders := make([]*trading.Trader, n)
	flaky := make([]*flakyDir, n)
	for i := range traders {
		traders[i] = trading.NewTrader(nil)
		flaky[i] = &flakyDir{inner: trading.Local{T: traders[i]}}
		opts.Shards = append(opts.Shards, flaky[i])
	}
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, traders, flaky
}

func TestOwnerStableUnderMembership(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	allAlive := func(int) bool { return true }
	types := make([]string, 200)
	for i := range types {
		types[i] = fmt.Sprintf("Service%d", i)
	}
	owners := make([]int, len(types))
	counts := make([]int, len(names))
	for i, st := range types {
		owners[i] = owner(st, names, allAlive)
		if owners[i] < 0 {
			t.Fatalf("no owner for %q", st)
		}
		counts[owners[i]]++
	}
	// The hash should spread types across all shards, not pile onto one.
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %s owns no types out of %d", names[i], len(types))
		}
	}
	// Killing shard 2 must move ONLY the types shard 2 owned.
	dead2 := func(i int) bool { return i != 2 }
	for i, st := range types {
		after := owner(st, names, dead2)
		if owners[i] != 2 && after != owners[i] {
			t.Fatalf("type %q moved %d -> %d though its owner stayed alive", st, owners[i], after)
		}
		if owners[i] == 2 && after == 2 {
			t.Fatalf("type %q still owned by dead shard", st)
		}
	}
	// Revival restores the original assignment exactly.
	for i, st := range types {
		if got := owner(st, names, allAlive); got != owners[i] {
			t.Fatalf("type %q did not return to %d after revival (got %d)", st, owners[i], got)
		}
	}
	if owner("anything", names, func(int) bool { return false }) != -1 {
		t.Fatal("owner over dead cluster != -1")
	}
}

func TestRouterRoundTrip(t *testing.T) {
	ctx := context.Background()
	r, traders, _ := newCluster(t, 4, Options{})
	types := []string{"Alpha", "Beta", "Gamma", "Delta", "Epsilon"}
	for _, st := range types {
		if err := r.AddType(ctx, trading.ServiceType{Name: st}); err != nil {
			t.Fatal(err)
		}
	}
	ids := make(map[string]string)
	for i, st := range types {
		id, err := r.Export(ctx, st, svcRef(i), map[string]trading.PropValue{
			"Rank": {Static: wire.Int(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(id, "s") || !strings.Contains(id, "/") {
			t.Fatalf("offer id %q is not shard-qualified", id)
		}
		ids[st] = id
	}
	// Each offer must live on exactly its owner, and nowhere else.
	for _, st := range types {
		own := r.Owner(st)
		total := 0
		for i, tr := range traders {
			n := countOffers(t, tr, st)
			total += n
			if n > 0 && i != own {
				t.Fatalf("type %q found on shard %d, owner is %d", st, i, own)
			}
		}
		if total != 1 {
			t.Fatalf("type %q has %d offers across the cluster, want 1", st, total)
		}
	}
	for _, st := range types {
		rs, err := r.Query(ctx, st, "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Offer.ServiceType != st {
			t.Fatalf("query %q: got %d results", st, len(rs))
		}
		if err := r.Renew(ctx, ids[st]); err != nil {
			t.Fatalf("renew %q: %v", ids[st], err)
		}
		if err := r.Modify(ctx, ids[st], map[string]trading.PropValue{"Rank": {Static: wire.Int(9)}}); err != nil {
			t.Fatalf("modify: %v", err)
		}
	}
	if err := r.Withdraw(ctx, ids["Alpha"]); err != nil {
		t.Fatal(err)
	}
	if rs, _ := r.Query(ctx, "Alpha", "", "", 0); len(rs) != 0 {
		t.Fatalf("Alpha still visible after withdraw: %d results", len(rs))
	}
}

func TestShardDeathReassignsAndMigrates(t *testing.T) {
	ctx := context.Background()
	sim := clock.NewSim(time.Unix(0, 0))
	r, traders, flaky := newCluster(t, 3, Options{Clock: sim, HandoffGrace: 10 * time.Second})
	// Lease offers like a real deployment: copies stranded by churn expire
	// instead of lingering forever.
	for _, tr := range traders {
		tr.SetClock(sim)
		tr.SetLeaseTTL(8 * time.Second)
	}
	if err := r.AddType(ctx, trading.ServiceType{Name: "Victim"}); err != nil {
		t.Fatal(err)
	}
	id, err := r.Export(ctx, "Victim", svcRef(1), map[string]trading.PropValue{"Rank": {Static: wire.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	own := r.Owner("Victim")

	// Sever the owner. The next query strikes it out and reroutes.
	flaky[own].setDown(true)
	rs, err := r.Query(ctx, "Victim", "", "", 0)
	if err != nil {
		t.Fatalf("query after owner death: %v", err)
	}
	if len(rs) != 0 {
		t.Fatalf("rerouted query returned %d results before re-export, want 0", len(rs))
	}
	own2 := r.Owner("Victim")
	if own2 == own || own2 < 0 {
		t.Fatalf("ownership did not move: %d -> %d", own, own2)
	}

	// The exporter's heartbeat renews; the router must demand a re-export.
	err = r.Renew(ctx, id)
	if !errors.Is(err, trading.ErrUnknownOffer) {
		t.Fatalf("renew after owner death: err = %v, want ErrUnknownOffer", err)
	}
	id2, err := r.Export(ctx, "Victim", svcRef(1), map[string]trading.PropValue{"Rank": {Static: wire.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err = r.Query(ctx, "Victim", "", "", 0)
	if err != nil || len(rs) != 1 {
		t.Fatalf("query after re-export: %d results, err %v", len(rs), err)
	}

	// Revive the old owner; a renew on the new owner keeps working, and the
	// rejoining shard takes ownership back with a grace window: the offer is
	// still visible from the old location while it migrates.
	flaky[own].setDown(false)
	r.noteOK(own)
	if got := r.Owner("Victim"); got != own {
		t.Fatalf("revived shard did not take its type back: owner = %d, want %d", got, own)
	}
	rs, err = r.Query(ctx, "Victim", "", "", 0)
	if err != nil || len(rs) != 1 {
		t.Fatalf("query during handoff grace: %d results, err %v", len(rs), err)
	}
	// The heartbeat now migrates the offer home.
	if err := r.Renew(ctx, id2); !errors.Is(err, trading.ErrUnknownOffer) {
		t.Fatalf("renew of stranded offer: err = %v, want ErrUnknownOffer", err)
	}
	if countOffers(t, traders[own2], "Victim") != 0 {
		t.Fatal("stranded copy not withdrawn during migration")
	}
	id3, err := r.Export(ctx, "Victim", svcRef(1), map[string]trading.PropValue{"Rank": {Static: wire.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if idx, _, _ := r.splitOfferID(id3); idx != own {
		t.Fatalf("re-export landed on shard %d, want rightful owner %d", idx, own)
	}
	// After the grace window the old interim owner is no longer consulted,
	// and the stale original copy (never renewed since the first death) has
	// expired with its lease; only the freshly renewed re-export survives.
	sim.Advance(11 * time.Second)
	if err := r.Renew(ctx, id3); err != nil {
		t.Fatalf("renew of homed offer: %v", err)
	}
	rs, err = r.Query(ctx, "Victim", "", "", 0)
	if err != nil || len(rs) != 1 {
		t.Fatalf("query after grace expiry: %d results, err %v", len(rs), err)
	}
	st := r.Stats()
	if st.Reassigns < 2 || st.MigratedRenews != 1 || st.HandoffMerges == 0 {
		t.Fatalf("stats = %+v, want >=2 reassigns, 1 migrated renew, >0 handoff merges", st)
	}
}

// TestProbeMarksDeadAndRejoins: the liveness poll is the only thing that
// notices a shard nobody is calling. A failed poll marks it dead and moves
// its types; a poll that succeeds again revives it, with its service types
// re-registered first.
func TestProbeMarksDeadAndRejoins(t *testing.T) {
	ctx := context.Background()
	r, _, flaky := newCluster(t, 2, Options{})
	if err := r.AddType(ctx, trading.ServiceType{Name: "S"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query(ctx, "S", "", "", 0); err != nil { // creates the route record
		t.Fatal(err)
	}
	own := r.Owner("S")

	r.Probe(ctx)
	if st := r.Stats(); st.ProbeFails != 0 || st.ShardStrikes != 0 || !r.Alive(0) || !r.Alive(1) {
		t.Fatalf("healthy probe changed state: %+v", st)
	}

	flaky[own].setDown(true)
	r.Probe(ctx)
	if r.Alive(own) {
		t.Fatal("dead shard still alive after failed probe")
	}
	if got := r.Owner("S"); got != 1-own {
		t.Fatalf("owner after failed probe = %d, want %d", got, 1-own)
	}
	r.Probe(ctx) // still down: counted, not re-reassigned
	if st := r.Stats(); st.ProbeFails != 2 || st.Reassigns != 1 {
		t.Fatalf("stats after two failed probes = %+v, want 2 probe fails, 1 reassign", st)
	}

	fresh := flaky[own].restartEmpty()
	flaky[own].setDown(false)
	r.Probe(ctx)
	if !r.Alive(own) {
		t.Fatal("shard did not rejoin after probe recovery")
	}
	if got := r.Owner("S"); got != own {
		t.Fatalf("owner after rejoin = %d, want %d", got, own)
	}
	if !slices.Contains(fresh.TypeNames(), "S") {
		t.Fatal("rejoined shard was not re-primed with the known types")
	}
	if st := r.Stats(); st.ProbeFails != 2 || st.Reassigns != 2 {
		t.Fatalf("stats after rejoin = %+v, want 2 probe fails, 2 reassigns", st)
	}
}

// TestProbeReprimesRejoinedShard: a shard that restarts empty while it is
// dead must get the router's known types back before it takes ownership
// again, or every export of its types fails with ErrUnknownServiceType. A
// type registered while the shard was down (AddType skips dead shards) is
// covered by the same re-prime.
func TestProbeReprimesRejoinedShard(t *testing.T) {
	ctx := context.Background()
	r, _, flaky := newCluster(t, 3, Options{})
	if err := r.AddType(ctx, trading.ServiceType{Name: "Early"}); err != nil {
		t.Fatal(err)
	}
	own := r.Owner("Early")
	if _, err := r.Export(ctx, "Early", svcRef(0), nil); err != nil {
		t.Fatal(err)
	}

	flaky[own].setDown(true)
	r.Probe(ctx)
	if r.Alive(own) {
		t.Fatal("severed shard still alive after probe")
	}
	if err := r.AddType(ctx, trading.ServiceType{Name: "Late"}); err != nil {
		t.Fatalf("AddType with a dead shard: %v", err)
	}
	fresh := flaky[own].restartEmpty()
	flaky[own].setDown(false)
	r.Probe(ctx)
	if !r.Alive(own) {
		t.Fatal("restarted shard did not rejoin")
	}

	id, err := r.Export(ctx, "Early", svcRef(1), nil)
	if err != nil {
		t.Fatalf("export to the rejoined owner: %v", err)
	}
	if idx, _, _ := r.splitOfferID(id); idx != own {
		t.Fatalf("export landed on shard %d, want rightful owner %d", idx, own)
	}
	if got := countOffers(t, fresh, "Early"); got != 1 {
		t.Fatalf("rejoined owner holds %d Early offers, want 1", got)
	}
	if !slices.Contains(fresh.TypeNames(), "Late") {
		t.Fatal("type registered while the shard was down was not primed on rejoin")
	}
}

// TestStartProbeLoop drives the probe loop on a simulated clock: nothing
// happens until a full interval elapses, each interval runs one probe, and
// stop ends the loop.
func TestStartProbeLoop(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	r, _, flaky := newCluster(t, 2, Options{Clock: sim})
	stop := r.StartProbe(time.Second)
	defer stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	armed := func() bool { return sim.PendingTimers() == 1 }

	flaky[1].setDown(true)
	sim.Advance(999 * time.Millisecond)
	if !r.Alive(1) {
		t.Fatal("probe ran before its interval elapsed")
	}
	sim.Advance(time.Millisecond)
	waitFor("the probe to mark shard 1 dead", func() bool { return !r.Alive(1) })

	flaky[1].setDown(false)
	waitFor("the loop to re-arm", armed)
	sim.Advance(time.Second)
	waitFor("the probe to revive shard 1", func() bool { return r.Alive(1) })

	waitFor("the loop to re-arm", armed)
	stop()
	stop() // idempotent
	if n := sim.PendingTimers(); n != 0 {
		t.Fatalf("stop left %d timers armed", n)
	}
	if st := r.Stats(); st.ProbeFails != 1 {
		t.Fatalf("ProbeFails = %d, want 1", st.ProbeFails)
	}
}

func TestTransportFaultClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("%w: %q", trading.ErrUnknownOffer, "x"), false},
		{fmt.Errorf("%w: %q", trading.ErrUnknownServiceType, "x"), false},
		{&orb.RemoteError{Code: "APP_ERROR", Msg: "boom"}, false},
		{errors.New("trading: parse error in constraint"), false},
		{orb.ErrClosed, true},
		{orb.ErrCircuitOpen, true},
		{fmt.Errorf("read: %w", orb.ErrInjectedFault), true},
		// Mid-call connection death surfaces raw pipe/EOF errors.
		{io.ErrClosedPipe, true},
		{fmt.Errorf("orb: write failed: %w", io.ErrClosedPipe), true},
		{io.ErrUnexpectedEOF, true},
	}
	for _, c := range cases {
		if got := transportFault(c.err); got != c.want {
			t.Errorf("transportFault(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
