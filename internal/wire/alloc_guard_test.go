package wire

import (
	"strconv"
	"testing"
)

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
	// Through a warm intern table the two field strings are hits: exactly 2.
	fr := NewFrameReader(nil)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := fr.Decode(encReq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("FrameReader.Decode(request): %.1f allocs/op, want <= 2", allocs)
	}
}

// loopReader serves the same bytes over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestAllocGuardFrameReaderNext: reading a frame into a warm reader
// allocates nothing, the header included.
func TestAllocGuardFrameReaderNext(t *testing.T) {
	frame, err := (&FrameBuffer{B: append(make([]byte, frameHeaderLen), "payload"...)}).Frame()
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&loopReader{b: frame})
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if p, err := fr.Next(); err != nil || string(p) != "payload" {
			t.Fatalf("Next = %q, %v", p, err)
		}
	}); allocs > 0 {
		t.Fatalf("warm FrameReader.Next: %.1f allocs/op, want 0", allocs)
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
// two per table plus one per string (keys included). Through a warm intern
// table, as a connection's FrameReader decodes, the strings of up to
// maxInterned bytes cost nothing: what is left is the tables.
func TestAllocGuardSmallTables(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		build                        func() Value
		maxBuild, maxDecode, maxWarm float64 // measured: 32/113/32 and 6/21/6
	}{
		{"query reply, 3 rows", queryReply3, 34, 116, 33},
		{"props, 4 entries", props4, 7, 22, 7},
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
		in := new(internTable)
		warm := testing.AllocsPerRun(100, func() {
			d := Decoder{buf: buf, in: in}
			if _, err := d.Value(); err != nil {
				t.Fatal(err)
			}
		})
		if warm > tc.maxWarm {
			t.Errorf("%s: decode through a warm intern table %.0f allocs, want <= %.0f", tc.name, warm, tc.maxWarm)
		}
		t.Logf("%s: build %.0f allocs, decode %.0f allocs (%.0f interned), %d bytes", tc.name, built, allocs, warm, len(buf))
	}
}

var (
	sinkValue Value
	sinkRef   ObjRef
	sinkStr   string
)

// TestAllocGuardValueRepr pins that the compact Value holds a string or a
// ref by pointer: packing one, unpacking it and looking a string key up in
// either form of table cost no allocation.
func TestAllocGuardValueRepr(t *testing.T) {
	r := ObjRef{Endpoint: "tcp|10.0.0.1:9000", Key: "monitor/LoadAvg"}
	s := "LoadAvgIncreasing"
	rv, sv := Ref(r), String(s)
	small := NewTableSize(0, 4)
	big := NewTableSize(0, 2*smallTableMax)
	for i := 0; i < 2*smallTableMax; i++ {
		big.SetString(strconv.Itoa(i), Int(i))
	}
	small.SetString(s, rv)
	big.SetString(s, rv)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Ref", func() { sinkValue = Ref(r) }},
		{"String", func() { sinkValue = String(s) }},
		{"AsRef", func() { sinkRef, _ = rv.AsRef() }},
		{"AsString", func() { sinkStr, _ = sv.AsString() }},
		{"Table.GetString (small)", func() { sinkValue = small.GetString(s) }},
		{"Table.GetString (spilled)", func() { sinkValue = big.GetString(s) }},
	} {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
	if !small.GetString(s).Equal(rv) || !big.GetString(s).Equal(rv) {
		t.Fatal("GetString lost the ref")
	}
}
