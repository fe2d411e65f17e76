package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// Tests for the per-connection intern table: a FrameReader decodes every
// payload exactly as DecodeMessage does, however many distinct strings
// have passed through its table, and the table never grows.

// internDiff decodes b through fr's intern table and without one, and
// describes any difference in the message or the error ("" if none).
func internDiff(fr *FrameReader, b []byte) string {
	got, gerr := fr.Decode(b)
	want, werr := DecodeMessage(b)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("interned err %v, plain err %v", gerr, werr)
	}
	if werr == nil && !equalMessages(got, want) {
		return fmt.Sprintf("interned %+v, plain %+v", got, want)
	}
	return ""
}

// equalMessages reports whether two decoded messages carry the same fields.
func equalMessages(a, b *Message) bool {
	if a.Type != b.Type || a.UnsubID != b.UnsubID ||
		(a.Req == nil) != (b.Req == nil) || (a.Rep == nil) != (b.Rep == nil) ||
		(a.Sub == nil) != (b.Sub == nil) || (a.Event == nil) != (b.Event == nil) {
		return false
	}
	switch {
	case a.Req != nil:
		x, y := a.Req, b.Req
		return x.ID == y.ID && x.Deadline == y.Deadline && x.ObjectKey == y.ObjectKey &&
			x.Operation == y.Operation && equalValues(x.Args, y.Args)
	case a.Rep != nil:
		x, y := a.Rep, b.Rep
		return x.ID == y.ID && x.Err == y.Err && x.ErrCode == y.ErrCode && equalValues(x.Results, y.Results)
	case a.Sub != nil:
		x, y := a.Sub, b.Sub
		return x.ID == y.ID && x.SubID == y.SubID && x.ObjectKey == y.ObjectKey &&
			x.Topic == y.Topic && equalValues(x.Args, y.Args)
	case a.Event != nil:
		return a.Event.SubID == b.Event.SubID && equalValues(a.Event.Values, b.Event.Values)
	}
	return true
}

// TestInternTableBoundedProperty floods one reader's table with 10 000
// distinct short keys, then decodes the trader's 3-row query reply: both
// decode as DecodeMessage does and the table is still its 64 slots.
func TestInternTableBoundedProperty(t *testing.T) {
	flood := NewTableSize(0, 10000)
	for i := 0; i < 10000; i++ {
		flood.SetString("key-"+strconv.Itoa(i), Int(i))
	}
	fr := NewFrameReader(nil)
	for _, v := range []Value{TableVal(flood), queryReply3(), queryReply3()} {
		payload, err := EncodeReply(&Reply{ID: 1, Results: []Value{v}})
		if err != nil {
			t.Fatal(err)
		}
		if d := internDiff(fr, payload); d != "" {
			t.Fatal(d)
		}
		used := 0
		for _, s := range fr.strs {
			if s != "" {
				used++
			}
		}
		if len(fr.strs) != internSlots || used > internSlots {
			t.Fatalf("intern table: %d slots, %d used, want %d at most", len(fr.strs), used, internSlots)
		}
	}
}

// TestFrameReaderKeepsAtMost64KiB: a big frame is read into a buffer of its
// own, so the buffer the reader keeps for its connection stays small.
func TestFrameReaderKeepsAtMost64KiB(t *testing.T) {
	var stream bytes.Buffer
	big := bytes.Repeat([]byte{7}, 512<<10)
	for _, p := range [][]byte{big, []byte("small")} {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	for _, want := range [][]byte{big, []byte("small")} {
		got, err := fr.Next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Next = %d bytes, %v; want %d bytes", len(got), err, len(want))
		}
	}
	if cap(fr.buf) > maxReaderBuf {
		t.Fatalf("reader keeps a %d-byte buffer after a 512 KiB frame, want <= %d", cap(fr.buf), maxReaderBuf)
	}
}
