package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Robustness: the decoder must never panic on arbitrary input — it faces
// bytes from untrusted peers. These are property-style fuzz tests using
// testing/quick (the module is offline; no go-fuzz corpus).

func TestPropertyDecodeValueNeverPanics(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(64)
			b := make([]byte, n)
			r.Read(b)
			args[0] = reflect.ValueOf(b)
		},
	}
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeValue(b)
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecodeMessageNeverPanics(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(96)
			b := make([]byte, n)
			r.Read(b)
			// Half the time, start with a valid message type byte so the
			// deeper decode paths get fuzzed too — all seven frame types,
			// including subscribe/unsubscribe/event.
			if n > 0 && r.Intn(2) == 0 {
				b[0] = byte(1 + r.Intn(int(MsgEvent)))
			}
			args[0] = reflect.ValueOf(b)
		},
	}
	// One long-lived interning reader decodes every input as well, and must
	// agree with the plain decode.
	fr := NewFrameReader(nil)
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		if d := internDiff(fr, b); d != "" {
			t.Log(d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Mutation property: flipping any single byte of a valid encoding either
// decodes to something (possibly different) or errors — never panics, and
// never decodes to a value equal to the original unless the flipped byte
// was redundant (there are none in this format except within float
// payloads and lengths that can alias; we only assert no panic).
func TestPropertyBitFlipSafety(t *testing.T) {
	original := mustEncodeFuzz(t)
	for i := range original {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mutated := append([]byte(nil), original...)
			mutated[i] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic decoding mutation at byte %d: %v", i, r)
					}
				}()
				_, _ = DecodeValue(mutated)
			}()
		}
	}
}

func mustEncodeFuzz(t *testing.T) []byte {
	t.Helper()
	tb := NewTable()
	tb.Append(String("alpha"))
	tb.Append(Number(3.25))
	tb.SetString("ref", Ref(ObjRef{Endpoint: "tcp|h:1", Key: "k"}))
	inner := NewList(Bool(true), Bytes([]byte{1, 2, 3}))
	tb.SetString("inner", TableVal(inner))
	b, err := EncodeValue(TableVal(tb))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---- encode/decode round-trip properties ----
//
// The hot paths encode requests and replies into pooled, recycled buffers;
// these properties pin down that an encode into a dirty buffer followed by
// DecodeMessage reproduces every field exactly.

// randomValue (codec_test.go) supplies arbitrary Values for these
// properties; randomString covers the string-typed message fields.
func randomString(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max))
	r.Read(b)
	return string(b)
}

func randomValues(r *rand.Rand) []Value {
	vs := make([]Value, r.Intn(4))
	for i := range vs {
		vs[i] = randomValue(r, 0)
	}
	return vs
}

func equalValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(&Request{
				ID:        r.Uint64(),
				ObjectKey: randomString(r, 16),
				Operation: randomString(r, 16),
				Args:      randomValues(r),
				Deadline:  int64(r.Uint64()),
			})
			args[1] = reflect.ValueOf(r.Intn(2) == 0)
		},
	}
	prop := func(req *Request, oneway bool) bool {
		// Encode into a dirty pooled-style prefix to prove the append
		// forms do not depend on a fresh buffer.
		dirty := []byte{0xde, 0xad}
		buf, err := AppendRequest(dirty, req, oneway)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		msg, err := DecodeMessage(buf[len(dirty):])
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		wantType := MsgRequest
		if oneway {
			wantType = MsgOneway
		}
		if msg.Type != wantType || msg.Req == nil {
			t.Logf("type = %v, req = %v", msg.Type, msg.Req)
			return false
		}
		got := msg.Req
		if got.ID != req.ID || got.Deadline != req.Deadline ||
			got.ObjectKey != req.ObjectKey || got.Operation != req.Operation {
			t.Logf("fields: got %+v want %+v", got, req)
			return false
		}
		if !equalValues(got.Args, req.Args) {
			t.Logf("args: got %v want %v", got.Args, req.Args)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReplyRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			rep := &Reply{ID: r.Uint64()}
			if r.Intn(2) == 0 {
				// Error reply: Err must be non-empty (empty marks success),
				// and error replies carry no results.
				rep.Err = "e" + randomString(r, 12)
				rep.ErrCode = randomString(r, 8)
			} else {
				rep.Results = randomValues(r)
			}
			args[0] = reflect.ValueOf(rep)
		},
	}
	prop := func(rep *Reply) bool {
		dirty := []byte{0xbe, 0xef}
		buf, err := AppendReply(dirty, rep)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		msg, err := DecodeMessage(buf[len(dirty):])
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		wantType := MsgReply
		if rep.Err != "" {
			wantType = MsgErrorReply
		}
		if msg.Type != wantType || msg.Rep == nil {
			t.Logf("type = %v, rep = %v", msg.Type, msg.Rep)
			return false
		}
		got := msg.Rep
		if got.ID != rep.ID || got.Err != rep.Err || got.ErrCode != rep.ErrCode {
			t.Logf("fields: got %+v want %+v", got, rep)
			return false
		}
		if !equalValues(got.Results, rep.Results) {
			t.Logf("results: got %v want %v", got.Results, rep.Results)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFrameBufferRoundTrip drives the pooled single-write framing
// against the buffered frame reader: every payload written as one frame
// comes back byte-identical, across buffer reuse.
func TestPropertyFrameBufferRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var wireBytes bytes.Buffer
	var want [][]byte
	for i := 0; i < 64; i++ {
		payload := make([]byte, r.Intn(5000))
		r.Read(payload)
		want = append(want, payload)
		fb := GetFrameBuffer()
		fb.B = append(fb.B, payload...)
		if err := fb.WriteFrame(&wireBytes); err != nil {
			t.Fatal(err)
		}
		PutFrameBuffer(fb)
	}
	fr := NewFrameReader(&wireBytes)
	for i, w := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(w))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("trailing read err = %v, want EOF", err)
	}
}
