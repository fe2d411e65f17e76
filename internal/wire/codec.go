package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary encoding of Values.
//
// Each value is a one-byte tag followed by a payload:
//
//	0x00 nil
//	0x01 false
//	0x02 true
//	0x03 number     8-byte big-endian IEEE-754
//	0x04 string     uvarint length + bytes
//	0x05 bytes      uvarint length + bytes
//	0x06 table      uvarint arrayLen + values, uvarint hashLen + key/value pairs
//	0x07 objref     string endpoint + string key
//
// The format is self-delimiting; frames add an outer length prefix so a
// reader can reject oversized messages before decoding.

const (
	tagNil    = 0x00
	tagFalse  = 0x01
	tagTrue   = 0x02
	tagNumber = 0x03
	tagString = 0x04
	tagBytes  = 0x05
	tagTable  = 0x06
	tagObjRef = 0x07
)

// Encoding limits. These bound resource use when decoding untrusted input.
const (
	// MaxFrameSize is the largest frame a peer may send (16 MiB).
	MaxFrameSize = 16 << 20
	// maxDepth bounds table nesting during encode and decode.
	maxDepth = 64
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrTooDeep       = errors.New("wire: value nesting exceeds depth limit")
	ErrTruncated     = errors.New("wire: truncated input")
)

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	return appendValue(dst, v, 0)
}

func appendValue(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return dst, ErrTooDeep
	}
	switch v.kind() {
	case KindNil:
		return append(dst, tagNil), nil
	case KindBool:
		if v.boolean() {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case KindNumber:
		dst = append(dst, tagNumber)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.num())), nil
	case KindString:
		dst = append(dst, tagString)
		return appendString(dst, v.str()), nil
	case KindBytes:
		dst = append(dst, tagBytes)
		return appendString(dst, v.str()), nil
	case KindObjRef:
		r := v.ref()
		dst = append(dst, tagObjRef)
		dst = appendString(dst, r.Endpoint)
		return appendString(dst, r.Key), nil
	case KindTable:
		t := v.table()
		dst = AppendTableHeader(dst, len(t.arr))
		var err error
		for _, e := range t.arr {
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return dst, err
			}
		}
		// Deterministic order: encode pairs sorted by key, matching Pairs.
		ps := t.sortedHash()
		dst = AppendCount(dst, len(ps))
		for i := range ps {
			if dst, err = appendValue(dst, ps[i].k.value(), depth+1); err != nil {
				return dst, err
			}
			if dst, err = appendValue(dst, ps[i].v, depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("wire: cannot encode kind %v", v.kind())
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Streaming primitives, for a writer that encodes a table shape it knows
// without building the tables, and a reader that decodes one into its own
// types. A table is its header (AppendTableHeader: the tag and the array
// length), its array elements, its pair count (AppendCount) and its pairs,
// each key before its value, in keyCmp order: strings sort by
// strings.Compare. A record has no array elements. Writing them so gives
// the bytes AppendValue gives for the same table.

// AppendTableHeader appends the start of a table with narr array elements.
func AppendTableHeader(dst []byte, narr int) []byte {
	dst = append(dst, tagTable)
	return binary.AppendUvarint(dst, uint64(narr))
}

// AppendCount appends a table's pair count, which follows its array
// elements.
func AppendCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendString appends s as a string value.
func AppendString(dst []byte, s string) []byte {
	return appendString(append(dst, tagString), s)
}

// AppendValueAt is AppendValue for a value nested depth tables deep, so
// the depth limit counts the tables a streaming writer put around it.
func AppendValueAt(dst []byte, v Value, depth int) ([]byte, error) {
	return appendValue(dst, v, depth)
}

// Decoder reads values from a byte slice.
type Decoder struct {
	buf  []byte
	pos  int
	in   *internTable // nil: every string is a fresh copy (see FrameReader.Decode)
	view bool         // a message's top-level long strings alias buf (see FrameReader.NextBorrowed)
}

// NewDecoder returns a decoder over buf that copies every string.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Value decodes the next value.
func (d *Decoder) Value() (Value, error) {
	return d.value(0)
}

// ValueAt decodes the next value, nested depth tables deep: the depth
// limit counts the tables a streaming reader has opened around it.
func (d *Decoder) ValueAt(depth int) (Value, error) {
	return d.value(depth)
}

// TableHeader reads the start of a table nested depth tables deep and
// returns its array length. ok is false, and nothing is read, when the next
// value is something else. The pair count (Count) follows the array
// elements.
func (d *Decoder) TableHeader(depth int) (narr int, ok bool, err error) {
	if depth > maxDepth {
		return 0, false, ErrTooDeep
	}
	if d.pos >= len(d.buf) {
		return 0, false, ErrTruncated
	}
	if d.buf[d.pos] != tagTable {
		return 0, false, nil
	}
	d.pos++
	// Each element is one byte or more, each pair two: a hostile count
	// reserves no more than the rest of the input could hold.
	n, err := d.count()
	return int(n), true, err
}

// Count reads a table's pair count.
func (d *Decoder) Count() (int, error) {
	n, err := d.count()
	return int(n), err
}

// KeyError is the error decoding gives a table pair whose key is k, or nil
// if k can key a table. Decoding reports it once the pair's value is read.
func KeyError(k Value) error {
	switch k.kind() {
	case KindString:
		return nil
	case KindNumber:
		if !math.IsNaN(k.num()) {
			return nil
		}
	}
	if _, err := toKey(k); err != nil {
		return keyError(err)
	}
	return nil
}

func keyError(err error) error { return fmt.Errorf("wire: decode table: %w", err) }

// Skip reads past the next value, nested depth tables deep, and checks it
// as ValueAt would, without building it.
func (d *Decoder) Skip(depth int) error {
	arrLen, ok, err := d.TableHeader(depth)
	if err != nil {
		return err
	}
	if ok {
		for i := 0; i < arrLen; i++ {
			if err := d.Skip(depth + 1); err != nil {
				return err
			}
		}
		pairs, err := d.count()
		if err != nil {
			return err
		}
		for i := uint64(0); i < pairs; i++ {
			k, err := d.value(depth + 1) // a key is read, to be checked
			if err != nil {
				return err
			}
			if err := d.Skip(depth + 1); err != nil {
				return err
			}
			if err := KeyError(k); err != nil {
				return err
			}
		}
		return nil
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case tagNil, tagFalse, tagTrue:
		return nil
	case tagNumber:
		if d.Remaining() < 8 {
			return ErrTruncated
		}
		d.pos += 8
		return nil
	case tagString, tagBytes:
		return d.skipStr()
	case tagObjRef:
		if err := d.skipStr(); err != nil {
			return err
		}
		return d.skipStr()
	default:
		return fmt.Errorf("wire: unknown value tag 0x%02x", tag)
	}
}

// skipStr reads past a string or bytes payload.
func (d *Decoder) skipStr() error {
	n, err := d.count()
	if err == nil {
		d.pos += int(n)
	}
	return err
}

func (d *Decoder) value(depth int) (Value, error) {
	arrLen, ok, err := d.TableHeader(depth)
	if err != nil {
		return Nil(), err
	}
	if ok {
		return d.table(uint64(arrLen), depth)
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case tagNil:
		return Nil(), nil
	case tagFalse:
		return Bool(false), nil
	case tagTrue:
		return Bool(true), nil
	case tagNumber:
		if d.Remaining() < 8 {
			return Nil(), ErrTruncated
		}
		bits := binary.BigEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
		return Number(math.Float64frombits(bits)), nil
	case tagString:
		s, err := d.strAt(depth)
		if err != nil {
			return Nil(), err
		}
		return String(s), nil
	case tagBytes:
		s, err := d.strAt(depth)
		if err != nil {
			return Nil(), err
		}
		return bytesVal(s), nil
	case tagObjRef:
		ep, err := d.str()
		if err != nil {
			return Nil(), err
		}
		key, err := d.str()
		if err != nil {
			return Nil(), err
		}
		return Ref(ObjRef{Endpoint: ep, Key: key}), nil
	default:
		return Nil(), fmt.Errorf("wire: unknown value tag 0x%02x", tag)
	}
}

// table decodes the rest of a table whose header TableHeader has read.
func (d *Decoder) table(arrLen uint64, depth int) (Value, error) {
	var err error
	var t *Table
	var hashLen uint64
	if arrLen == 0 {
		// A record: its pair count comes next, so the table is sized
		// before it is allocated.
		if hashLen, err = d.count(); err != nil {
			return Nil(), err
		}
		t = NewTableSize(0, int(min(hashLen, uint64(d.Remaining()/2))))
	} else {
		t = NewTableSize(int(arrLen), 0)
		for i := uint64(0); i < arrLen; i++ {
			e, err := d.value(depth + 1)
			if err != nil {
				return Nil(), err
			}
			t.arr = append(t.arr, e)
		}
		if hashLen, err = d.count(); err != nil {
			return Nil(), err
		}
		t.reserveHash(int(min(hashLen, uint64(d.Remaining()/2))))
	}
	for i := uint64(0); i < hashLen; i++ {
		k, err := d.value(depth + 1)
		if err != nil {
			return Nil(), err
		}
		v, err := d.value(depth + 1)
		if err != nil {
			return Nil(), err
		}
		if err := t.Set(k, v); err != nil {
			return Nil(), keyError(err)
		}
	}
	return TableVal(t), nil
}

func (d *Decoder) str() (string, error) { return d.strAt(-1) }

// strAt decodes a string or bytes payload nested depth tables deep: when d
// views its buffer, a message's top-level one (depth 0) of viewMin bytes or
// more is a view into it; else it is interned or copied.
func (d *Decoder) strAt(depth int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.Remaining()) {
		return "", ErrTruncated
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if depth == 0 && d.view && len(b) >= viewMin {
		return unsafe.String(unsafe.SliceData(b), len(b)), nil
	}
	if d.in != nil && len(b) > 0 && len(b) <= maxInterned {
		return d.in.intern(b), nil
	}
	return string(b), nil
}

// count decodes an element count, refusing one larger than the bytes left.
func (d *Decoder) count() (uint64, error) {
	n, err := d.uvarint()
	if err == nil && n > uint64(d.Remaining()) {
		err = ErrTruncated
	}
	return n, err
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.pos += n
	return v, nil
}

// DecodeValue decodes a single value from buf, requiring that buf contain
// exactly one value.
func DecodeValue(buf []byte) (Value, error) {
	d := &Decoder{buf: buf}
	v, err := d.Value()
	if err != nil {
		return Nil(), err
	}
	if d.Remaining() != 0 {
		return Nil(), fmt.Errorf("wire: %d trailing bytes after value", d.Remaining())
	}
	return v, nil
}

// EncodeValue encodes a single value into a fresh buffer.
func EncodeValue(v Value) ([]byte, error) {
	return AppendValue(nil, v)
}

// WriteFrame writes a length-prefixed frame containing payload to w. The
// header and payload go out in a single Write, so a frame is one syscall
// and cannot be torn in half by a mid-frame write deadline. Callers on hot
// paths avoid the payload copy by encoding straight into a FrameBuffer and
// calling its WriteFrame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fb := GetFrameBuffer()
	fb.B = append(fb.B, payload...)
	err := fb.WriteFrame(w)
	PutFrameBuffer(fb)
	return err
}

// ReadFrame reads one length-prefixed frame from r, rejecting frames larger
// than MaxFrameSize.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	return buf, nil
}
