package shard

import (
	"context"
	"strings"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// TestKeepRouterTypeNames: the type names a router keeps in its maps
// arrive through the servant as views into a pooled buffer when they are
// this long: the route a query records keeps its own copy (wire.Keep), and
// the types it learns from addType are kept by the trader servant it wraps.
// Under -race a released buffer is poisoned, and a site without its Keep
// fails here; other builds check the same values without the poison.
func TestKeepRouterTypeNames(t *testing.T) {
	r, err := NewRouter(Options{Shards: []trading.Directory{
		trading.Local{T: trading.NewTrader(nil)}, trading.Local{T: trading.NewTrader(nil)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "keep-router"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register(trading.DefaultObjectKey, "", NewServant(r))
	client := orb.NewClient(n)
	defer client.Close()
	// call invokes op, then a small call, which the server reads after it
	// has released op's request: a view op's servant kept is poison by then.
	call := func(op string, args ...wire.Value) {
		t.Helper()
		for _, c := range []struct {
			op   string
			args []wire.Value
		}{{op, args}, {"listTypes", nil}} {
			if _, err := client.Invoke(context.Background(), ref, c.op, c.args...); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
	}

	typ, iface := "type"+strings.Repeat("x", 2048), "iface"+strings.Repeat("x", 2048)
	call("addType", wire.String(typ), wire.String(iface))
	if sts := r.KnownTypes(); len(sts) != 1 || sts[0].Name != typ || sts[0].Interface != iface {
		t.Error("addType: the router does not keep the type's names")
	}
	call("query", wire.String(typ))
	r.mu.RLock()
	_, ok := r.routes[typ]
	r.mu.RUnlock()
	if !ok {
		t.Error("query: the route is not kept under its type name")
	}
	// A type the shards learned without the router gets its route from the
	// owner's answer to a query, under the query's own type name.
	late := "late" + strings.Repeat("x", 2048)
	for _, d := range r.opts.Shards {
		if err := d.AddType(context.Background(), trading.ServiceType{Name: late}); err != nil {
			t.Fatal(err)
		}
	}
	call("query", wire.String(late))
	r.mu.RLock()
	_, ok = r.routes[late]
	r.mu.RUnlock()
	if !ok {
		t.Error("query: the route the owner's answer records is not kept under its type name")
	}
}
