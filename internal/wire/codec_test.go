package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, v Value) []byte {
	t.Helper()
	b, err := EncodeValue(v)
	if err != nil {
		t.Fatalf("EncodeValue(%v): %v", v, err)
	}
	return b
}

func TestCodecScalarsRoundTrip(t *testing.T) {
	vals := []Value{
		Nil(),
		Bool(false),
		Bool(true),
		Number(0),
		Number(-1.5),
		Number(math.Inf(1)),
		Number(math.NaN()),
		String(""),
		String("hello, 世界"),
		Bytes(nil),
		Bytes([]byte{0, 1, 255}),
		Ref(ObjRef{Endpoint: "tcp|10.0.0.1:9090", Key: "monitor/LoadAvg"}),
	}
	for _, v := range vals {
		got, err := DecodeValue(mustEncode(t, v))
		if err != nil {
			t.Fatalf("decode(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestCodecTableRoundTrip(t *testing.T) {
	inner := NewList(Number(1), Number(5), Number(15))
	tb := NewTable()
	tb.Append(String("a"))
	tb.Append(TableVal(inner))
	tb.SetString("name", String("LoadAvg"))
	tb.SetString("threshold", Number(50))
	if err := tb.Set(Bool(true), String("flag")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(Number(7.5), String("frac")); err != nil {
		t.Fatal(err)
	}
	v := TableVal(tb)
	got, err := DecodeValue(mustEncode(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("table round trip:\n got %v\nwant %v", got, v)
	}
}

func TestCodecDeterministicEncoding(t *testing.T) {
	tb := NewTable()
	tb.SetString("b", Int(2))
	tb.SetString("a", Int(1))
	tb.SetString("c", Int(3))
	b1 := mustEncode(t, TableVal(tb))
	b2 := mustEncode(t, TableVal(tb))
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding of the same table differs between calls")
	}
}

func TestCodecDepthLimit(t *testing.T) {
	v := TableVal(NewTable())
	for i := 0; i < maxDepth+2; i++ {
		outer := NewTable()
		outer.Append(v)
		v = TableVal(outer)
	}
	if _, err := EncodeValue(v); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("EncodeValue(deep) err = %v, want ErrTooDeep", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{0x7f}},
		{"truncated number", []byte{tagNumber, 1, 2}},
		{"truncated string len", []byte{tagString}},
		{"string shorter than length", []byte{tagString, 10, 'a'}},
		{"table truncated", []byte{tagTable, 2, tagNil}},
		{"huge array claim", []byte{tagTable, 0xff, 0xff, 0xff, 0xff, 0x0f}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeValue(tt.buf); err == nil {
				t.Fatal("DecodeValue succeeded on malformed input")
			}
		})
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	b := mustEncode(t, Int(1))
	b = append(b, 0x00)
	if _, err := DecodeValue(b); err == nil {
		t.Fatal("DecodeValue accepted trailing bytes")
	}
}

// randomValue builds an arbitrary Value for property testing.
func randomValue(r *rand.Rand, depth int) Value {
	max := 7
	if depth > 3 {
		max = 5 // no tables below depth 3: keep sizes bounded
	}
	switch r.Intn(max) {
	case 0:
		return Nil()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		// Mix of integers and irrational-ish floats.
		if r.Intn(2) == 0 {
			return Int(r.Intn(2000) - 1000)
		}
		return Number(r.NormFloat64() * 1e6)
	case 3:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String(string(b))
	case 4:
		n := r.Intn(12)
		b := make([]byte, n)
		r.Read(b)
		return Bytes(b)
	case 5:
		return Ref(ObjRef{Endpoint: "tcp|h:1", Key: string(rune('a' + r.Intn(26)))})
	default:
		tb := NewTable()
		for i, n := 0, r.Intn(4); i < n; i++ {
			tb.Append(randomValue(r, depth+1))
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			key := String(string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))))
			_ = tb.Set(key, randomValue(r, depth+1))
		}
		return TableVal(tb)
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r, 0))
		},
	}
	prop := func(v Value) bool {
		b, err := EncodeValue(v)
		if err != nil {
			return false
		}
		got, err := DecodeValue(b)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodingDeterministic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r, 0))
		},
	}
	prop := func(v Value) bool {
		b1, err1 := EncodeValue(v)
		b2, err2 := EncodeValue(v)
		return err1 == nil && err2 == nil && bytes.Equal(b1, b2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("payload-bytes")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("frame len = %d, want 0", len(got))
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var hdr bytes.Buffer
	// Claim a frame larger than MaxFrameSize.
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(&bytes.Buffer{}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'a', 'b'}) // claims 10 bytes, has 2
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		ID:        42,
		ObjectKey: "monitor/LoadAvg",
		Operation: "getAspectValue",
		Args:      []Value{String("Increasing"), Int(5)},
		Deadline:  1234567890123456789,
	}
	payload, err := EncodeRequest(req, false)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgRequest {
		t.Fatalf("type = %v, want request", msg.Type)
	}
	got := msg.Req
	if got.ID != req.ID || got.ObjectKey != req.ObjectKey || got.Operation != req.Operation {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Deadline != req.Deadline {
		t.Fatalf("deadline = %d, want %d", got.Deadline, req.Deadline)
	}
	if len(got.Args) != 2 || !got.Args[0].Equal(req.Args[0]) || !got.Args[1].Equal(req.Args[1]) {
		t.Fatalf("args mismatch: %v", got.Args)
	}
}

func TestOnewayRoundTrip(t *testing.T) {
	req := &Request{ObjectKey: "observer-1", Operation: "notifyEvent", Args: []Value{String("LoadIncrease")}}
	payload, err := EncodeRequest(req, true)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgOneway {
		t.Fatalf("type = %v, want oneway", msg.Type)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rep := &Reply{ID: 7, Results: []Value{Bool(true), NilOrTable()}}
	payload, err := AppendReply(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgReply || msg.Rep.ID != 7 || len(msg.Rep.Results) != 2 {
		t.Fatalf("reply mismatch: %+v", msg.Rep)
	}
}

// NilOrTable keeps the reply test honest with a structured result.
func NilOrTable() Value {
	tb := NewTable()
	tb.SetString("ok", Bool(true))
	return TableVal(tb)
}

func TestErrorReplyRoundTrip(t *testing.T) {
	rep := &Reply{ID: 9, Err: "no such operation", ErrCode: "BAD_OPERATION"}
	payload, err := AppendReply(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgErrorReply {
		t.Fatalf("type = %v, want error reply", msg.Type)
	}
	if msg.Rep.Err != "no such operation" || msg.Rep.ErrCode != "BAD_OPERATION" {
		t.Fatalf("error fields = %q/%q", msg.Rep.ErrCode, msg.Rep.Err)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	tests := [][]byte{
		nil,
		{0x00},
		{byte(MsgRequest)},           // truncated header
		{byte(MsgReply), 0, 0, 0, 0}, // truncated id
		{byte(MsgRequest), 0, 0, 0, 0, 0, 0, 0, 0, 5, 'a'}, // bad objkey len
	}
	for i, b := range tests {
		if _, err := DecodeMessage(b); err == nil {
			t.Errorf("case %d: DecodeMessage succeeded on malformed input", i)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgRequest.String() != "request" || MsgOneway.String() != "oneway" ||
		MsgReply.String() != "reply" || MsgErrorReply.String() != "error" {
		t.Fatal("MsgType names wrong")
	}
	if MsgType(0).String() == "" {
		t.Fatal("unknown MsgType should render")
	}
}

func BenchmarkEncodeSmallRequest(b *testing.B) {
	req := &Request{ID: 1, ObjectKey: "obj", Operation: "hello", Args: []Value{Int(1), String("x")}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeRequest(req, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSmallRequest(b *testing.B) {
	req := &Request{ID: 1, ObjectKey: "obj", Operation: "hello", Args: []Value{Int(1), String("x")}}
	payload, err := EncodeRequest(req, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(payload); err != nil {
			b.Fatal(err)
		}
	}
}
