package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Allocation-regression guards for the codec hot paths. The pooled-buffer
// overhaul got the append-style encoders to zero allocations per message;
// these tests fail if a change quietly reintroduces per-message garbage.
// The ceilings are the measured counts, with no slack: the codec runs on
// one goroutine, so its counts do not vary from run to run, and a message
// or table split into two objects again is one allocation more.

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
	encRep, err := AppendReply(nil, &Reply{ID: 7, Results: []Value{Int(42)}})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly 3 allocs: the Message with its Request and the Args backing
	// array in one object, and two field strings, which the decoder copies
	// so frame buffers can be recycled underneath it.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encReq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("DecodeMessage(request): %.1f allocs/op, want <= 3", allocs)
	}
	// Exactly 1 alloc: the Message with its Reply and the Results array.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encRep); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("DecodeMessage(reply): %.1f allocs/op, want <= 1", allocs)
	}
	// Through a warm intern table the two field strings are hits: exactly 1.
	fr := NewFrameReader(nil)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := fr.Decode(encReq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("FrameReader.Decode(request): %.1f allocs/op, want <= 1", allocs)
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

// TestAllocGuardNextBorrowed: the server's read of a request into a warm
// reader allocates nothing, a small one's four args and a 4 KiB one's view
// included.
func TestAllocGuardNextBorrowed(t *testing.T) {
	if poisonReleased {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	for _, arg := range []Value{String("x"), String(strings.Repeat("x", 4096))} {
		fb := &FrameBuffer{B: make([]byte, frameHeaderLen)}
		var err error
		if fb.B, err = AppendRequest(fb.B, &Request{ID: 7, ObjectKey: "echo", Operation: "do",
			Args: []Value{Int(1), arg, Bool(true), Nil()}}, false); err != nil {
			t.Fatal(err)
		}
		frame, err := fb.Frame()
		if err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(&loopReader{b: frame})
		read := func() {
			b, err := fr.NextBorrowed()
			if err != nil || len(b.Req.Args) != 4 {
				t.Fatalf("NextBorrowed = %+v, %v", b, err)
			}
			b.Release()
		}
		read()
		if allocs := testing.AllocsPerRun(200, read); allocs > 0 {
			t.Fatalf("warm NextBorrowed of a %d-byte request: %.1f allocs/op, want 0", len(frame), allocs)
		}
	}
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
// small-table form: building is one allocation per table (the Table and its
// presized storage in one object, as every table here has 2, 3, 4 or 5
// entries), encoding into a warm buffer none, and decoding one per table
// plus one per string (keys included). Through a warm intern table, as a
// connection's FrameReader decodes, the strings of up to maxInterned bytes
// cost nothing: what is left is the tables.
func TestAllocGuardSmallTables(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		build                        func() Value
		maxBuild, maxDecode, maxWarm float64
	}{
		{"query reply, 3 rows", queryReply3, 16, 97, 16},
		{"props, 4 entries", props4, 3, 18, 3},
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

var (
	sinkPtr   any
	sinkVals  []Value
	sinkPairs []tablePair
)

// The message bodies decodeMessage allocates.
type (
	requestBody = struct {
		Message
		req Request
	}
	replyBody = struct {
		Message
		rep Reply
	}
	subscribeBody = struct {
		Message
		sub Subscribe
	}
	eventBody = struct {
		Message
		ev Event
	}
)

// bytesPerOp reports the bytes f allocates per call: the least of three
// averages over a thousand calls, so a stray allocation elsewhere in the
// process does not count.
func bytesPerOp(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/1000)
	}
	return best
}

// TestAllocGuardFusedBytes: a decoded message or table that is one object
// takes no more bytes than the two allocations it replaces, at every count
// from 0 to maxFused. The two-allocation figure is measured here, from the
// same header and storage allocated apart, so the test follows the
// runtime's size classes rather than restating them. Every value, key and
// string is a number or empty, so the shape is all that allocates.
func TestAllocGuardFusedBytes(t *testing.T) {
	decodeMsg := func(b []byte) func() {
		return func() {
			if _, err := DecodeMessage(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeVal := func(b []byte) func() {
		return func() {
			if _, err := DecodeValue(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	enc := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for n := 0; n <= maxFused; n++ {
		vals := make([]Value, n)
		rec := NewTable()
		for i := range vals {
			vals[i] = Int(i)
			rec.Set(Int(100+i), Int(i))
		}
		for _, tc := range []struct {
			name          string
			decode, apart func()
		}{
			{"request", decodeMsg(enc(EncodeRequest(&Request{Args: vals}, false))),
				func() { sinkPtr, sinkVals = new(requestBody), make([]Value, 0, n) }},
			{"reply", decodeMsg(enc(AppendReply(nil, &Reply{Results: vals}))),
				func() { sinkPtr, sinkVals = new(replyBody), make([]Value, 0, n) }},
			{"subscribe", decodeMsg(enc(AppendSubscribe(nil, &Subscribe{Args: vals}))),
				func() { sinkPtr, sinkVals = new(subscribeBody), make([]Value, 0, n) }},
			{"event", decodeMsg(enc(AppendEvent(nil, &Event{Values: vals}))),
				func() { sinkPtr, sinkVals = new(eventBody), make([]Value, 0, n) }},
			{"list", decodeVal(enc(EncodeValue(TableVal(NewList(vals...))))),
				func() { sinkPtr, sinkVals = new(Table), make([]Value, 0, n) }},
			{"record", decodeVal(enc(EncodeValue(TableVal(rec)))),
				func() { sinkPtr, sinkPairs = new(Table), make([]tablePair, 0, n) }},
		} {
			fused, apart := bytesPerOp(tc.decode), bytesPerOp(tc.apart)
			if fused > apart {
				t.Errorf("%s of %d: decode allocates %d bytes, the two allocations apart %d", tc.name, n, fused, apart)
			}
		}
	}
}

// TestAllocGuardHostileCounts: a short input that claims 2^40 values,
// elements or pairs is refused before anything is allocated, and one that
// claims as many as it has bytes reserves no more than those bytes could
// hold: a value per byte, a pair per two.
func TestAllocGuardHostileCounts(t *testing.T) {
	request := func(count uint64, pad []byte) []byte {
		b := appendUint64([]byte{byte(MsgRequest)}, 1) // id
		b = appendUint64(b, 0)                         // deadline
		b = appendString(appendString(appendString(b, ""), ""), "")
		return append(appendUint64(b, count), pad...)
	}
	table := func(arrLen, hashLen uint64, pad []byte) []byte {
		b := binary.AppendUvarint([]byte{tagTable}, arrLen)
		if arrLen == 0 {
			b = binary.AppendUvarint(b, hashLen)
		}
		return append(b, pad...)
	}
	const huge = 1 << 40
	nils := make([]byte, 16)                    // sixteen nil values
	nums := bytes.Repeat([]byte{tagNumber}, 16) // one number, then a truncated one
	decodeMsg := func(b []byte) error { _, err := DecodeMessage(b); return err }
	decodeVal := func(b []byte) error { _, err := DecodeValue(b); return err }
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"request of 2^40 values", request(huge, nils), decodeMsg},
		{"list of 2^40 elements", table(huge, 0, nils), decodeVal},
		{"record of 2^40 pairs", table(0, huge, nums), decodeVal},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.decode(tc.payload); err != ErrTruncated {
				t.Fatalf("%s: err %v, want ErrTruncated", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs before refusing it, want 0", tc.name, allocs)
		}
	}
	for _, tc := range []struct {
		name          string
		payload       []byte
		decode        func([]byte) error
		apart         func()
		wantTruncated bool
	}{
		{"request of 16 values in 16 bytes", request(16, nils), decodeMsg,
			func() { sinkPtr, sinkVals = new(requestBody), make([]Value, 0, 16) }, false},
		{"list of 16 elements in 16 bytes", table(16, 0, nils), decodeVal,
			func() { sinkPtr, sinkVals = new(Table), make([]Value, 0, 16) }, true},
		{"record of 16 pairs in 16 bytes", table(0, 16, nums), decodeVal,
			func() { sinkPtr, sinkPairs = new(Table), make([]tablePair, 0, 8) }, true},
	} {
		got := bytesPerOp(func() {
			if err := tc.decode(tc.payload); (err == ErrTruncated) != tc.wantTruncated {
				t.Fatalf("%s: err %v", tc.name, err)
			}
		})
		if apart := bytesPerOp(tc.apart); got > apart {
			t.Errorf("%s: %d bytes allocated, want <= %d", tc.name, got, apart)
		}
	}
}
