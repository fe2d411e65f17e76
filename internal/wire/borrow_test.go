package wire

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// Tests for borrowed requests: NextBorrowed decodes every payload as
// DecodeMessage does, only a request's long top-level strings alias its
// pooled buffer, and Keep copies exactly those.

// borrowDiff reads payload through NextBorrowed and decodes it with
// DecodeMessage, and describes any difference in acceptance, error text or
// values ("" if none). It then releases the borrowed message and checks that
// its values other than views are unchanged, which under -race, where a
// release poisons the buffer, shows they never aliased it.
func borrowDiff(payload []byte) string {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, payload); err != nil {
		return fmt.Sprintf("frame: %v", err)
	}
	got, gerr := NewFrameReader(&frame).NextBorrowed()
	want, werr := DecodeMessage(payload)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("borrowed err %v, copied err %v", gerr, werr)
	}
	if werr != nil {
		return ""
	}
	if !equalMessages(&got.Message, want) {
		return fmt.Sprintf("borrowed %+v, copied %+v", got.Message, want)
	}
	var args []Value
	var req Request
	if got.Req != nil {
		req, args = *got.Req, slices.Clone(got.Req.Args)
	}
	got.Release()
	if want.Req != nil && (req.ObjectKey != want.Req.ObjectKey || req.Operation != want.Req.Operation) {
		return fmt.Sprintf("header changed by the release: %.16q..., %.16q...", req.ObjectKey, req.Operation)
	}
	for i, a := range args {
		if !isView(a) && !a.Equal(want.Req.Args[i]) {
			return fmt.Sprintf("arg %d changed by the release: %v, want %v", i, a, want.Req.Args[i])
		}
	}
	return ""
}

// isView reports whether v is a string or bytes value long enough to be a
// view into a borrowed request's buffer.
func isView(v Value) bool {
	return (v.kind() == KindString || v.kind() == KindBytes) && len(v.str()) >= viewMin
}

// straddleSeeds returns requests, oneways and a subscribe whose args sit on
// both sides of viewMin, as strings, bytes and inside nested tables, and a
// request whose object key, operation and object reference are that long.
func straddleSeeds(t testingT) [][]byte {
	var args []Value
	for _, n := range []int{viewMin - 1, viewMin, viewMin + 1} {
		args = append(args, String(strings.Repeat("s", n)), Bytes(bytes.Repeat([]byte{'b'}, n)))
	}
	nested := NewList(String(strings.Repeat("n", 2*viewMin)))
	nested.SetString(strings.Repeat("k", viewMin), String(strings.Repeat("v", viewMin)))
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatalf("seed encode: %v", err)
		}
		seeds = append(seeds, b)
	}
	add(EncodeRequest(&Request{ID: 1, ObjectKey: "svc", Operation: "op", Args: args[:4]}, false))
	add(EncodeRequest(&Request{ID: 2, ObjectKey: "svc", Operation: "op", Args: args}, false))
	add(EncodeRequest(&Request{ID: 3, ObjectKey: "svc", Operation: "op", Args: []Value{TableVal(nested), args[1]}}, true))
	add(AppendSubscribe(nil, &Subscribe{ID: 4, SubID: 1, ObjectKey: "svc", Topic: "t", Args: args[2:4]}))
	long := strings.Repeat("o", viewMin)
	add(EncodeRequest(&Request{ID: 5, ObjectKey: long, Operation: long,
		Args: []Value{Ref(ObjRef{Endpoint: long, Key: long})}}, false))
	return seeds
}

// TestBorrowedDecodeMatchesCopying runs the differential over every seed.
func TestBorrowedDecodeMatchesCopying(t *testing.T) {
	seeds := append(append(seedMessages(t), fusedSizeSeeds(t)...), straddleSeeds(t)...)
	for i, seed := range seeds {
		for _, b := range [][]byte{seed, seed[:len(seed)/2], nil} {
			if d := borrowDiff(b); d != "" {
				t.Fatalf("seed %d (%d bytes): %s", i, len(b), d)
			}
		}
	}
}

// TestBorrowViews: a request's top-level strings and bytes of viewMin bytes
// or more alias its pooled buffer; a shorter one, and one in a table, do
// not. Under -race the release poisons what the views read.
func TestBorrowViews(t *testing.T) {
	short, long := strings.Repeat("a", viewMin-1), strings.Repeat("b", viewMin)
	payload, err := EncodeRequest(&Request{ID: 1, ObjectKey: "svc", Operation: "op", Args: []Value{
		String(short), String(long), Bytes([]byte(long)), TableVal(NewList(String(long))),
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, payload); err != nil {
		t.Fatal(err)
	}
	b, err := NewFrameReader(&frame).NextBorrowed()
	if err != nil {
		t.Fatal(err)
	}
	buf := *b.buf
	inBuf := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return p >= lo && p < lo+uintptr(len(buf))
	}
	args := slices.Clone(b.Req.Args)
	nested := args[3].table().Index(1).Str()
	for i, want := range []bool{false, true, true} {
		if inBuf(args[i].str()) != want {
			t.Errorf("arg %d (%d bytes): a view is %v, want %v", i, len(args[i].str()), !want, want)
		}
	}
	if inBuf(nested) {
		t.Error("a table's string is a view into the buffer")
	}
	b.Release()
	if args[0].str() != short || nested != long {
		t.Fatal("a copied string changed with the release")
	}
	if poisonReleased && args[1].str() != string(bytes.Repeat([]byte{poisonByte}, viewMin)) {
		t.Fatalf("a released view reads %.16q..., want poison", args[1].str())
	}
}

// TestKeep: Keep returns a short string itself, at no cost, and a long one
// as a copy of its own.
func TestKeep(t *testing.T) {
	short, long := strings.Repeat("a", viewMin-1), strings.Repeat("b", viewMin)
	if k := Keep(short); unsafe.StringData(k) != unsafe.StringData(short) {
		t.Error("Keep copied a short string")
	}
	if k := Keep(long); k != long || unsafe.StringData(k) == unsafe.StringData(long) {
		t.Error("Keep did not copy a long string")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Keep(short) }); allocs > 0 {
		t.Errorf("Keep of a short string: %.1f allocs, want 0", allocs)
	}
}
