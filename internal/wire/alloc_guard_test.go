package wire

import "testing"

// Allocation-regression guards for the codec hot paths. The pooled-buffer
// overhaul got the append-style encoders to zero allocations per message;
// these tests fail if a change quietly reintroduces per-message garbage.
// Ceilings carry one or two allocations of slack over the measured counts
// so unrelated runtime/toolchain noise does not flake them.

func TestAllocGuardAppendRequest(t *testing.T) {
	req := &Request{
		ID:        7,
		ObjectKey: "echo",
		Operation: "do",
		Args:      []Value{Int(42), String("x")},
		Deadline:  123456789,
	}
	fb := GetFrameBuffer()
	defer PutFrameBuffer(fb)
	// Warm the buffer so steady-state reuse is what gets measured.
	out, err := AppendRequest(fb.B, req, false)
	if err != nil {
		t.Fatal(err)
	}
	fb.B = out
	allocs := testing.AllocsPerRun(200, func() {
		fb.B = fb.B[:frameHeaderLen]
		out, err := AppendRequest(fb.B, req, false)
		if err != nil {
			t.Fatal(err)
		}
		fb.B = out
	})
	if allocs > 0 {
		t.Fatalf("AppendRequest into warm pooled buffer: %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGuardAppendReply(t *testing.T) {
	rep := &Reply{ID: 7, Results: []Value{Int(42), String("x")}}
	fb := GetFrameBuffer()
	defer PutFrameBuffer(fb)
	out, err := AppendReply(fb.B, rep)
	if err != nil {
		t.Fatal(err)
	}
	fb.B = out
	allocs := testing.AllocsPerRun(200, func() {
		fb.B = fb.B[:frameHeaderLen]
		out, err := AppendReply(fb.B, rep)
		if err != nil {
			t.Fatal(err)
		}
		fb.B = out
	})
	if allocs > 0 {
		t.Fatalf("AppendReply into warm pooled buffer: %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGuardDecodeMessage(t *testing.T) {
	req := &Request{ID: 7, ObjectKey: "echo", Operation: "do", Args: []Value{Int(42)}, Deadline: 1}
	encReq, err := EncodeRequest(req, false)
	if err != nil {
		t.Fatal(err)
	}
	encRep, err := EncodeReply(&Reply{ID: 7, Results: []Value{Int(42)}})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly 4 allocs: the Message with its Request in one object, the Args
	// backing array, two field strings — the decoder copies what it keeps so
	// frame buffers can be recycled underneath it. No slack: a body split
	// from its Message again is the regression this pins.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encReq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("DecodeMessage(request): %.1f allocs/op, want <= 4", allocs)
	}
	// Exactly 2 allocs: the Message with its Reply, the Results backing array.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encRep); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("DecodeMessage(reply): %.1f allocs/op, want <= 2", allocs)
	}
}

// queryReply3 builds what trading.resultsToWire builds for three offers of
// the paper's shape: two static properties, two dynamic ones on one monitor.
func queryReply3() Value {
	out := NewTableSize(3, 0)
	for i := 0; i < 3; i++ {
		mon := ObjRef{Endpoint: "tcp|10.0.0.1:9000", Key: "monitor/LoadAvg"}
		snap := NewTableSize(0, 4)
		snap.SetString("LoadAvg", Number(0.5))
		snap.SetString("LoadAvgIncreasing", String("no"))
		snap.SetString("Cores", Int(4))
		snap.SetString("Host", String("tcp|10.0.0.1:9000"))
		dyn := NewTableSize(0, 2)
		for _, name := range []string{"LoadAvg", "LoadAvgIncreasing"} {
			d := NewTableSize(0, 2)
			d.SetString("ref", Ref(mon))
			d.SetString("aspect", String("Increasing"))
			dyn.SetString(name, TableVal(d))
		}
		o := NewTableSize(0, 5)
		o.SetString("id", String("offer-4711"))
		o.SetString("type", String("LoadShared"))
		o.SetString("ref", Ref(ObjRef{Endpoint: "tcp|10.0.0.1:9000", Key: "service"}))
		o.SetString("properties", TableVal(snap))
		o.SetString("dynamics", TableVal(dyn))
		out.Append(TableVal(o))
	}
	return TableVal(out)
}

// props4 builds what trading.PropsToWire builds for the same offer.
func props4() Value {
	tb := NewTableSize(0, 4)
	tb.SetString("Cores", Int(4))
	tb.SetString("Host", String("tcp|10.0.0.1:9000"))
	for _, name := range []string{"LoadAvg", "LoadAvgIncreasing"} {
		d := NewTableSize(0, 2)
		d.SetString("dynamic", Ref(ObjRef{Endpoint: "tcp|10.0.0.1:9000", Key: "monitor/LoadAvg"}))
		d.SetString("aspect", String("Increasing"))
		tb.SetString(name, TableVal(d))
	}
	return TableVal(tb)
}

// TestAllocGuardSmallTables pins what the trader's wire traffic costs in the
// small-table form: building is two allocations per table (the Table and
// its presized pair slice), encoding into a warm buffer none, and decoding
// two per table plus one per string (keys included).
func TestAllocGuardSmallTables(t *testing.T) {
	for _, tc := range []struct {
		name                string
		build               func() Value
		maxBuild, maxDecode float64 // measured: 33/118 and 6/19
	}{
		{"query reply, 3 rows", queryReply3, 34, 116},
		{"props, 4 entries", props4, 7, 22},
	} {
		built := testing.AllocsPerRun(100, func() { tc.build() })
		if built > tc.maxBuild {
			t.Errorf("%s: build %.0f allocs, want <= %.0f", tc.name, built, tc.maxBuild)
		}
		v := tc.build()
		buf, err := AppendValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendValue(buf[:0], v) }); allocs > 0 {
			t.Errorf("%s: encode into a warm buffer %.0f allocs, want 0", tc.name, allocs)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeValue(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.maxDecode {
			t.Errorf("%s: decode %.0f allocs, want <= %.0f", tc.name, allocs, tc.maxDecode)
		}
		t.Logf("%s: build %.0f allocs, decode %.0f allocs, %d bytes", tc.name, built, allocs, len(buf))
	}
}
