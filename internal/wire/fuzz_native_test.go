package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Native fuzz target and deterministic hostile-input tests for the frame
// decoder. The property tests in fuzz_test.go throw random bytes at the
// decoder; this file seeds the coverage-guided fuzzer with one valid
// encoding of every message type (so mutations start from deep decode
// paths) and pins the specific failure modes a hostile peer can trigger:
// truncation at every byte boundary, nesting past the depth limit, and
// oversized frame claims.

// seedMessages returns a valid encoding of each of the seven frame types,
// including an error reply carrying the overload-shed status code.
func seedMessages(t testingT) [][]byte {
	args := []Value{
		String("alpha"), Int(42), Bool(true),
		Ref(ObjRef{Endpoint: "tcp|h:1", Key: "svc"}),
		TableVal(NewList(Number(3.25), Bytes([]byte{1, 2}))),
	}
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatalf("seed encode: %v", err)
		}
		seeds = append(seeds, b)
	}
	add(EncodeRequest(&Request{ID: 7, ObjectKey: "svc", Operation: "work", Args: args, Deadline: 1 << 40}, false))
	add(EncodeRequest(&Request{ID: 8, ObjectKey: "svc", Operation: "fire", Args: args[:1]}, true))
	add(AppendReply(nil, &Reply{ID: 7, Results: args}))
	add(AppendReply(nil, &Reply{ID: 7, Err: "server overloaded", ErrCode: StatusOverloaded}))
	add(AppendSubscribe(nil, &Subscribe{ID: 9, SubID: 3, ObjectKey: "svc", Topic: "load", Args: args[:2]}))
	seeds = append(seeds, AppendUnsubscribe(nil, 3))
	add(AppendEvent(nil, &Event{SubID: 3, Values: args[:3]}))
	return seeds
}

// fusedSizeSeeds returns messages on both sides of every inline limit of
// the decoder: requests, replies and events of 0 to 6 values (one object
// up to 4) and replies carrying a record of 0 to 9 pairs (one object at 1,
// 2, 4, 5, 7 and 8, spilled to a map past 8).
func fusedSizeSeeds(t testingT) [][]byte {
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatalf("seed encode: %v", err)
		}
		seeds = append(seeds, b)
	}
	for n := 0; n <= 6; n++ {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Int(i)
		}
		add(EncodeRequest(&Request{ID: 1, ObjectKey: "svc", Operation: "op", Args: vals}, false))
		add(AppendReply(nil, &Reply{ID: 1, Results: vals}))
		add(AppendEvent(nil, &Event{SubID: 1, Values: vals}))
	}
	for n := 0; n <= 9; n++ {
		rec := NewTable()
		for i := 0; i < n; i++ {
			rec.SetString(string(rune('a'+i)), Int(i))
		}
		add(AppendReply(nil, &Reply{ID: 1, Results: []Value{TableVal(rec)}}))
	}
	return seeds
}

// testingT is the subset of *testing.T and *testing.F the seed builder
// needs, so the same seeds feed both the fuzzer and deterministic tests.
type testingT interface {
	Fatalf(format string, args ...any)
}

// FuzzDecodeMessage is the coverage-guided companion to the
// testing/quick properties: DecodeMessage must never panic, any payload it
// accepts must decode identically a second time, and one long-lived
// reader's interning decode and the server's borrowed decode must agree
// with it on every input (see borrowDiff).
func FuzzDecodeMessage(f *testing.F) {
	fr := NewFrameReader(nil)
	for _, seed := range seedMessages(f) {
		f.Add(seed)
	}
	// Hostile shapes: truncated request prefix, deep nesting, junk tag.
	req := seedMessages(f)[0]
	f.Add(req[:len(req)/2])
	f.Add(deepTablePayload(byte(MsgEvent), maxDepth+8))
	f.Add([]byte{0xff, 0x00, 0x7f})
	for _, seed := range append(fusedSizeSeeds(f), straddleSeeds(f)...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if d := internDiff(fr, b); d != "" {
			t.Fatal(d)
		}
		if d := borrowDiff(b); d != "" {
			t.Fatal(d)
		}
		if d := eventDiff(fr, b); d != "" {
			t.Fatal(d)
		}
		msg, err := DecodeMessage(b)
		if err != nil {
			return
		}
		again, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("second decode of accepted payload failed: %v", err)
		}
		if msg.Type != again.Type {
			t.Fatalf("decode not deterministic: %v then %v", msg.Type, again.Type)
		}
	})
}

// eventDiff reads a payload the client takes for an event (EventSubID)
// both ways a subscriber's reader can: each value decoded, and each
// skipped (Decoder.Skip). Both must accept what DecodeMessage accepts and
// nothing else, and the decoded values must be its values.
func eventDiff(fr *FrameReader, b []byte) string {
	if _, ok := EventSubID(b); !ok {
		return ""
	}
	want, werr := DecodeMessage(b)
	var got []Value
	rerr := fr.DecodeEvent(b, func(d *Decoder, n int) error {
		for i := 0; i < n; i++ {
			v, err := d.Value()
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		return nil
	})
	serr := fr.DecodeEvent(b, func(d *Decoder, n int) error {
		for i := 0; i < n; i++ {
			if err := d.Skip(0); err != nil {
				return err
			}
		}
		return nil
	})
	if (rerr == nil) != (werr == nil) || (serr == nil) != (werr == nil) {
		return fmt.Sprintf("event read err %v, skip err %v, DecodeMessage err %v", rerr, serr, werr)
	}
	if werr == nil && !equalValues(got, want.Event.Values) {
		return fmt.Sprintf("event read %v, DecodeMessage %v", got, want.Event.Values)
	}
	return ""
}

// TestDecodeMessageEveryPrefix truncates valid encodings of all seven
// message types at every byte boundary: each strict prefix must be
// rejected with an error — never a panic, never a silent partial decode.
func TestDecodeMessageEveryPrefix(t *testing.T) {
	for i, seed := range seedMessages(t) {
		if msg, err := DecodeMessage(seed); err != nil || msg == nil {
			t.Fatalf("seed %d: full decode failed: %v", i, err)
		}
		for n := 0; n < len(seed); n++ {
			if _, err := DecodeMessage(seed[:n]); err == nil {
				t.Fatalf("seed %d: %d-byte strict prefix of a %d-byte message decoded without error", i, n, len(seed))
			}
		}
	}
}

// deepTablePayload hand-crafts a message whose single argument nests
// depth tables: each level is tagTable + arrlen(1), the innermost element
// is nil, and each level closes with hashlen(0). This bypasses the
// encoder's own depth check to prove the decoder enforces its own.
func deepTablePayload(msgType byte, depth int) []byte {
	// Event header: type, subID (8-byte BE), value count = 1 (8-byte BE).
	buf := []byte{msgType}
	buf = appendUint64(buf, 1)
	buf = appendUint64(buf, 1)
	for i := 0; i < depth; i++ {
		buf = append(buf, tagTable, 1)
	}
	buf = append(buf, tagNil)
	for i := 0; i < depth; i++ {
		buf = append(buf, 0)
	}
	return buf
}

// TestDecodeDepthLimit covers the decode side of the nesting bound (the
// encode side lives in codec_test.go): a hand-built payload nested past
// maxDepth is rejected with ErrTooDeep, while the same construction at
// the limit decodes fine.
func TestDecodeDepthLimit(t *testing.T) {
	hostile := deepTablePayload(byte(MsgEvent), maxDepth+8)
	if _, err := DecodeMessage(hostile); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("over-limit nesting: err = %v, want ErrTooDeep", err)
	}
	okDepth := deepTablePayload(byte(MsgEvent), maxDepth-2)
	msg, err := DecodeMessage(okDepth)
	if err != nil {
		t.Fatalf("at-limit nesting rejected: %v", err)
	}
	if msg.Type != MsgEvent || len(msg.Event.Values) != 1 {
		t.Fatalf("at-limit decode = %+v", msg)
	}
}

// TestOverloadedReplyRoundTrip pins the overload-shed wire contract: an
// error reply carrying StatusOverloaded survives the pooled append-form
// encode and comes back as an error reply with the code intact — this is
// the frame the ORB client maps to ErrOverloaded.
func TestOverloadedReplyRoundTrip(t *testing.T) {
	dirty := []byte{0xaa, 0xbb}
	buf, err := AppendReply(dirty, &Reply{ID: 99, Err: "request shed: dispatch queue full", ErrCode: StatusOverloaded})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := DecodeMessage(buf[len(dirty):])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if msg.Type != MsgErrorReply {
		t.Fatalf("type = %v, want MsgErrorReply", msg.Type)
	}
	if msg.Rep.ID != 99 || msg.Rep.ErrCode != StatusOverloaded || msg.Rep.Err == "" {
		t.Fatalf("reply = %+v, want ID 99 with code %q", msg.Rep, StatusOverloaded)
	}
}

// TestFrameReaderOversizedClaim covers the buffered reader's size check
// (codec_test.go covers the unbuffered ReadFrame): a header claiming more
// than MaxFrameSize must be refused before any body is read or allocated.
func TestFrameReaderOversizedClaim(t *testing.T) {
	var stream bytes.Buffer
	stream.Write([]byte{0xff, 0xff, 0xff, 0xff})
	fr := NewFrameReader(&stream)
	if _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
