package trading

import (
	"context"
	"slices"
	"strings"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// TestKeepServantArgs: every string arg the trader keeps past a call
// arrives as a view into a pooled buffer when it is this long, so the
// servant, or the parse cache it reaches, keeps it with wire.Keep. Under
// -race a released buffer is poisoned, and a site without its Keep fails
// here; other builds check the same values without the poison.
func TestKeepServantArgs(t *testing.T) {
	long := func(prefix string) string { return prefix + strings.Repeat("x", 2048) }
	tr := NewTrader(nil)
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "keep-trader"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register(DefaultObjectKey, "", NewServant(tr))
	client := orb.NewClient(n)
	defer client.Close()
	ctx := context.Background()
	// call invokes op, then a small call, which the server reads after it
	// has released op's request: a view op's servant kept is poison by then.
	call := func(op string, args ...wire.Value) {
		t.Helper()
		for _, c := range []struct {
			op   string
			args []wire.Value
		}{{op, args}, {"listTypes", nil}} {
			if _, err := client.Invoke(ctx, ref, c.op, c.args...); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
	}

	typ, iface := long("type"), long("iface")
	call("addType", wire.String(typ), wire.String(iface))
	if !slices.Contains(tr.TypeNames(), typ) {
		t.Error("addType: the type name is not kept")
	}
	tr.mu.RLock()
	rt := tr.types[typ]
	tr.mu.RUnlock()
	if rt == nil || rt.Interface != iface {
		t.Error("addType: the interface name is not kept")
	}

	name := long("name")
	call("export", wire.String(typ), wire.Ref(serverRef(0)),
		PropsToWire(map[string]PropValue{"Name": {Static: wire.String(name)}}))
	if rs, err := tr.Query(ctx, typ, "", "", 0); err != nil || len(rs) != 1 || rs[0].Offer.ServiceType != typ {
		t.Errorf("export: the offer's type is not kept: %d rows, %v", len(rs), err)
	}

	constraint, preference := "Name == '"+name+"'", "max Name"+strings.Repeat(" ", 2048)
	call("query", wire.String(typ), wire.String(constraint), wire.String(preference))
	constraintCache.mu.Lock()
	_, ok := constraintCache.m[constraint]
	constraintCache.mu.Unlock()
	if !ok {
		t.Error("query: the constraint cache does not hold the constraint under its source")
	}
	preferenceCache.mu.Lock()
	_, ok = preferenceCache.m[preference]
	preferenceCache.mu.Unlock()
	if !ok {
		t.Error("query: the preference cache does not hold the preference under its source")
	}
}
