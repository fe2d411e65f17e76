package trading

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// The generic table codec is the reference for the query reply's writer
// and reader: resultsToTables builds a reply as wire tables, for
// wire.AppendValue to encode, and ResultsFromWire reads a reply that
// wire.DecodeValue decoded into tables.

// resultsToTables builds the reply for results as tables.
func resultsToTables(results []QueryResult) wire.Value {
	out := wire.NewTableSize(len(results), 0)
	for _, r := range results {
		row := wire.NewTable()
		row.SetString("id", wire.String(r.Offer.ID))
		row.SetString("type", wire.String(r.Offer.ServiceType))
		row.SetString("ref", wire.Ref(r.Offer.Ref))
		snap := wire.NewTable()
		for name, v := range r.Snapshot {
			snap.SetString(name, v)
		}
		row.SetString("properties", wire.TableVal(snap))
		var dyn *wire.Table
		for name, pv := range r.Offer.Props {
			if !pv.IsDynamic() {
				continue
			}
			if dyn == nil {
				dyn = wire.NewTable()
			}
			d := wire.NewTable()
			d.SetString("ref", wire.Ref(pv.Dynamic))
			if pv.Aspect != "" {
				d.SetString("aspect", wire.String(pv.Aspect))
			}
			dyn.SetString(name, wire.TableVal(d))
		}
		if dyn != nil {
			row.SetString("dynamics", wire.TableVal(dyn))
		}
		out.Append(wire.TableVal(row))
	}
	return wire.TableVal(out)
}

// ResultsFromWire reads a decoded query reply.
func ResultsFromWire(v wire.Value) ([]QueryResult, error) {
	tb, ok := v.AsTable()
	if !ok {
		return nil, fmt.Errorf("trading: query reply is %s, want table", v.Kind())
	}
	out := make([]QueryResult, 0, tb.Len())
	for i := 1; i <= tb.Len(); i++ {
		entry, ok := tb.Index(i).AsTable()
		if !ok {
			return nil, fmt.Errorf("trading: query reply entry %d is not a table", i)
		}
		ref, ok := entry.GetString("ref").AsRef()
		if !ok {
			return nil, fmt.Errorf("trading: query reply entry %d has no ref", i)
		}
		qr := QueryResult{
			Offer: Offer{
				ID:          entry.GetString("id").Str(),
				ServiceType: entry.GetString("type").Str(),
				Ref:         ref,
			},
		}
		if snap, ok := entry.GetString("properties").AsTable(); ok {
			qr.Snapshot = make(map[string]wire.Value, snap.Size())
			snap.Pairs(func(k, val wire.Value) bool {
				if name, ok := k.AsString(); ok {
					qr.Snapshot[name] = val
				}
				return true
			})
		} else {
			qr.Snapshot = map[string]wire.Value{}
		}
		if dyn, ok := entry.GetString("dynamics").AsTable(); ok {
			qr.Offer.Props = make(map[string]PropValue, dyn.Size())
			dyn.Pairs(func(k, val wire.Value) bool {
				name, nameOK := k.AsString()
				d, tblOK := val.AsTable()
				if !nameOK || !tblOK {
					return true
				}
				if ref, ok := d.GetString("ref").AsRef(); ok {
					qr.Offer.Props[name] = PropValue{
						Dynamic: ref,
						Aspect:  d.GetString("aspect").Str(),
					}
				}
				return true
			})
		}
		out = append(out, qr)
	}
	return out, nil
}

// readReference reads b as the reference does.
func readReference(b []byte) ([]QueryResult, error) {
	v, err := wire.DecodeValue(b)
	if err != nil {
		return nil, err
	}
	return ResultsFromWire(v)
}

// readDirect reads b with the direct reader, reporting trailing bytes as
// wire.DecodeValue does.
func readDirect(b []byte) ([]QueryResult, error) {
	d := wire.NewDecoder(b)
	rows, shapeErr, err := readReply(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("wire: %d trailing bytes after value", d.Remaining())
	}
	if err == nil {
		err = shapeErr
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// equalResults reports the first difference between two replies read,
// telling a nil map from an empty one as the reference makes them.
func equalResults(got, want []QueryResult) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%d rows (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Offer.ID != w.Offer.ID || g.Offer.ServiceType != w.Offer.ServiceType || g.Offer.Ref != w.Offer.Ref {
			return fmt.Errorf("row %d is %q %q %v, want %q %q %v", i, g.Offer.ID, g.Offer.ServiceType, g.Offer.Ref,
				w.Offer.ID, w.Offer.ServiceType, w.Offer.Ref)
		}
		if (g.Snapshot == nil) != (w.Snapshot == nil) || len(g.Snapshot) != len(w.Snapshot) {
			return fmt.Errorf("row %d: snapshot %v, want %v", i, g.Snapshot, w.Snapshot)
		}
		for name, v := range w.Snapshot {
			if gv, ok := g.Snapshot[name]; !ok || !gv.Equal(v) {
				return fmt.Errorf("row %d: snapshot[%q] = %v, want %v", i, name, gv, v)
			}
		}
		if (g.Offer.Props == nil) != (w.Offer.Props == nil) || len(g.Offer.Props) != len(w.Offer.Props) {
			return fmt.Errorf("row %d: props %v, want %v", i, g.Offer.Props, w.Offer.Props)
		}
		for name, pv := range w.Offer.Props {
			if gv, ok := g.Offer.Props[name]; !ok || gv.Dynamic != pv.Dynamic || gv.Aspect != pv.Aspect || !gv.Static.IsNil() {
				return fmt.Errorf("row %d: props[%q] = %+v, want %+v", i, name, gv, pv)
			}
		}
	}
	return nil
}

// replyNames are the property names random offers draw from: the row's own
// keys among them, and the empty name.
var replyNames = []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host", "ref", "id", "aspect", "properties", "", "é", "Z", "a"}

// randomValue is a value of any kind, a nested table among them.
func randomValue(rng *rand.Rand, depth int) wire.Value {
	switch rng.Intn(9) {
	case 0:
		return wire.Nil()
	case 1:
		return wire.Bool(rng.Intn(2) == 0)
	case 2:
		return wire.Number([]float64{0, -1.5, 4, math.Inf(1), math.NaN(), 1e300}[rng.Intn(6)])
	case 3:
		return wire.Bytes([]byte{0, byte(rng.Intn(256))})
	case 4:
		return wire.Ref(monitorRef(rng.Intn(3)))
	case 5:
		if depth < 3 {
			tb := wire.NewTable()
			for i := rng.Intn(4); i > 0; i-- {
				tb.Append(randomValue(rng, depth+1))
			}
			tb.SetString(replyNames[rng.Intn(len(replyNames))], randomValue(rng, depth+1))
			return wire.TableVal(tb)
		}
	}
	return wire.String(fmt.Sprint("v", rng.Intn(100)))
}

// randomResults is up to six rows of random offers: static properties of
// every kind (nil among them, which no reply carries), and dynamic ones with
// and without an aspect, resolved or not.
func randomResults(rng *rand.Rand) []QueryResult {
	rs := make([]QueryResult, rng.Intn(7))
	for i := range rs {
		r := &rs[i]
		r.Offer = Offer{ID: fmt.Sprint("offer-", rng.Intn(1000)), ServiceType: []string{"S", "", "LoadShared"}[rng.Intn(3)],
			Ref: serverRef(rng.Intn(5))}
		r.Snapshot = map[string]wire.Value{}
		for _, name := range replyNames {
			switch rng.Intn(4) {
			case 0:
				if r.Offer.Props == nil {
					r.Offer.Props = map[string]PropValue{}
				}
				pv := PropValue{Dynamic: monitorRef(rng.Intn(4))}
				if rng.Intn(2) == 0 {
					pv.Aspect = []string{"Increasing", "x"}[rng.Intn(2)]
				}
				r.Offer.Props[name] = pv
				if rng.Intn(3) > 0 {
					r.Snapshot[name] = randomValue(rng, 0)
				}
			case 1:
				r.Snapshot[name] = randomValue(rng, 0)
			}
		}
	}
	return rs
}

// asRead is what reading back the reply written for rs gives: no nil
// snapshot values.
func asRead(rs []QueryResult) []QueryResult {
	out := make([]QueryResult, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Snapshot = map[string]wire.Value{}
		for name, v := range r.Snapshot {
			if !v.IsNil() {
				out[i].Snapshot[name] = v
			}
		}
	}
	return out
}

// checkWritten: the reply written for rs is byte for byte the reference's,
// and reads back as rs.
func checkWritten(t *testing.T, rs []QueryResult) []byte {
	t.Helper()
	want, err := wire.EncodeValue(resultsToTables(rs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultsToWire(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("written reply\n%x\nreference\n%x", got, want)
	}
	back, err := readDirect(got)
	if err != nil {
		t.Fatalf("reading back a written reply: %v", err)
	}
	if err := equalResults(back, asRead(rs)); err != nil {
		t.Fatalf("read back: %v", err)
	}
	return got
}

// checkRead: the direct reader and the reference accept and reject the
// same bytes, with the same error text, and read the same rows.
func checkRead(t *testing.T, b []byte) {
	t.Helper()
	want, werr := readReference(b)
	got, gerr := readDirect(b)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%x: direct error %v, reference error %v", b, gerr, werr)
	case werr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%x: direct error %q, reference %q", b, gerr, werr)
	case werr == nil:
		if err := equalResults(got, want); err != nil {
			t.Fatalf("%x: %v", b, err)
		}
	}
}

// hostileReplies are replies of the wrong shape, lists whose hash part
// moves rows in and out the way a decoded table's Set does, and bad keys.
func hostileReplies() [][]byte {
	row := func(ref bool) wire.Value {
		tb := wire.NewTable()
		tb.SetString("id", wire.String("offer-1"))
		if ref {
			tb.SetString("ref", wire.Ref(serverRef(1)))
		}
		return wire.TableVal(tb)
	}
	var out [][]byte
	add := func(arr []wire.Value, pairs ...wire.Value) {
		b := wire.AppendTableHeader(nil, len(arr))
		for _, v := range arr {
			b, _ = wire.AppendValue(b, v)
		}
		b = wire.AppendCount(b, len(pairs)/2)
		for _, v := range pairs {
			b, _ = wire.AppendValue(b, v)
		}
		out = append(out, b)
	}
	for _, v := range []wire.Value{wire.Nil(), wire.String("x"), wire.Int(1)} {
		b, _ := wire.EncodeValue(v)
		out = append(out, b)
	}
	add(nil)
	add([]wire.Value{wire.String("not-a-table")})
	add([]wire.Value{row(false)})
	add([]wire.Value{row(true), row(true)})
	add(nil, wire.Int(3), row(true), wire.Int(2), row(false), wire.Int(1), row(true))
	add(nil, wire.Int(3), row(true), wire.Int(2), row(true), wire.Int(1), row(true))
	add([]wire.Value{row(true), wire.Nil(), wire.Nil()}, wire.Int(2), wire.Nil())
	add([]wire.Value{row(true), wire.Nil(), wire.Nil()}, wire.Int(3), wire.Nil())
	add(nil, wire.Int(1), wire.Int(5), wire.Int(1), row(true))
	add(nil, wire.Int(2), row(true), wire.Int(2), wire.Nil(), wire.Int(1), row(true))
	add(nil, wire.String("1"), row(true), wire.Number(1.5), row(false), wire.Bool(true), row(false))
	add(nil, wire.Number(math.NaN()), row(true))
	add(nil, wire.Nil(), row(true))
	add([]wire.Value{row(true)}, wire.TableVal(wire.NewTable()), wire.Nil())
	// A bad key whose value is cut short: the value's error comes first.
	b := out[len(out)-2]
	out = append(out, b[:len(b)-1])
	return out
}

// FuzzQueryReply: on arbitrary bytes the direct reader agrees with the
// reference (checkRead), and replies written from random offers are the
// reference's bytes and read back as those offers (checkWritten).
func FuzzQueryReply(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		b, err := wire.EncodeValue(resultsToTables(randomResults(rand.New(rand.NewSource(seed)))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, seed)
	}
	for i, b := range hostileReplies() {
		f.Add(b, int64(i))
	}
	f.Fuzz(func(t *testing.T, b []byte, seed int64) {
		checkRead(t, b)
		checkRead(t, checkWritten(t, randomResults(rand.New(rand.NewSource(seed)))))
	})
}

// TestQueryReplyReaderAgreesOnHostileReplies runs checkRead over the hand-
// made shapes and every truncation of a written reply.
func TestQueryReplyReaderAgreesOnHostileReplies(t *testing.T) {
	for _, b := range hostileReplies() {
		checkRead(t, b)
	}
	b := checkWritten(t, randomResults(rand.New(rand.NewSource(3))))
	for i := range b {
		checkRead(t, b[:i])
	}
}

// lookupWorld serves a loaded trader (newLoadedTrader, with a static Cores
// and Host on every offer) on an in-process server, and returns a Lookup on
// it and the trader itself as a Directory.
func lookupWorld(t *testing.T, n int) (remote *Lookup, local Local) {
	t.Helper()
	loads := make([]float64, n)
	incr := make([]bool, n)
	for i := range loads {
		loads[i] = float64((i * 7) % n)
		incr[i] = i%3 == 0
	}
	tr, _ := newLoadedTrader(loads, incr)
	tr.SetResolveParallel(1) // no fan-out goroutines in an allocation count
	tr.mu.Lock()
	for _, rec := range tr.offers {
		props := map[string]PropValue{"Cores": {Static: wire.Int(4)}, "Host": {Static: wire.String(rec.offer.Ref.Endpoint)}}
		for i := range rec.props.slots {
			props[tr.types["LoadShared"].names[rec.props.slot(i)]] = rec.props.prop(i)
		}
		rec.props = tr.types["LoadShared"].slotted(props)
	}
	tr.mu.Unlock()
	nw := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: nw, Address: "trader-host"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ref := srv.Register(DefaultObjectKey, "", NewServant(tr))
	rc := orb.NewClient(nw)
	t.Cleanup(func() { rc.Close() })
	return NewLookup(rc, ref), Local{T: tr}
}

// TestLookupQueryCollocatedEqualsRemote: Lookup.Query reads the same rows
// from a remote trader as the reference reader reads from the reply of the
// trader's own answer in process, its errors included.
func TestLookupQueryCollocatedEqualsRemote(t *testing.T) {
	remote, local := lookupWorld(t, 12)
	ctx := context.Background()
	for _, q := range []struct{ cons, pref string }{
		{"LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg"},
		{"Cores >= 2", "max LoadAvg"},
		{"", "first"},
		{"Missing > 1", ""},
	} {
		for _, max := range []int{0, 1, 3} {
			want, werr := remote.Query(ctx, "LoadShared", q.cons, q.pref, max)
			rows, gerr := local.Query(ctx, "LoadShared", q.cons, q.pref, max)
			if werr != nil || gerr != nil {
				t.Fatalf("%q %q: remote %v, in process %v", q.cons, q.pref, werr, gerr)
			}
			got, err := ResultsFromWire(resultsToTables(rows))
			if err != nil {
				t.Fatal(err)
			}
			if err := equalResults(got, want); err != nil {
				t.Fatalf("%q %q max %d: remote vs in process: %v", q.cons, q.pref, max, err)
			}
		}
	}
	_, werr := remote.Query(ctx, "NoSuchType", "", "", 0)
	_, gerr := local.Query(ctx, "NoSuchType", "", "", 0)
	if gerr == nil || !orb.IsRemoteCode(werr, orb.CodeApp) || !strings.HasSuffix(werr.Error(), gerr.Error()) {
		t.Fatalf("unknown type: remote %v, in process %v", werr, gerr)
	}
}

// TestAllocGuardLookupQuery pins what a 3-row Lookup.Query round trip over
// the in-process transport allocates, client and server together, at its
// measured count. The rows carry two dynamic and two static properties.
func TestAllocGuardLookupQuery(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector disables the pooled query scratch")
	}
	remote, _ := lookupWorld(t, 12)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(300, func() {
		rs, err := remote.Query(ctx, "LoadShared", "LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 3)
		if err != nil || len(rs) != 3 {
			t.Fatalf("query: %d rows, %v", len(rs), err)
		}
	})
	// 19 while the reply was read through a closure, which cost the
	// closure, the variable it captured and the variadic argument array.
	const want = 16
	if allocs > want {
		t.Fatalf("3-row Lookup.Query: %.1f allocs/op, want <= %d", allocs, want)
	}
	t.Logf("%.1f allocs/op", allocs)
}

// TestAllocGuardLookupRenew pins a successful Lookup.Renew round trip over
// the in-process transport, client and server together: the reply message.
// It was 3: mapOfferErr, which every Renew, Modify and Withdraw passes its
// result through, allocated on success, and so did Proxy.Call's variadic
// argument array before a collocated call copied its arguments.
func TestAllocGuardLookupRenew(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	remote, _ := lookupWorld(t, 2)
	ctx := context.Background()
	id, err := remote.Export(ctx, "LoadShared", serverRef(99), map[string]PropValue{"LoadAvg": {Static: wire.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := remote.Renew(ctx, id); err != nil {
			t.Fatal(err)
		}
	})
	const want = 1
	if allocs > want {
		t.Fatalf("Lookup.Renew: %.1f allocs/op, want <= %d", allocs, want)
	}
	t.Logf("%.1f allocs/op", allocs)
}
