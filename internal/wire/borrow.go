package wire

import (
	"math/bits"
	"strings"
	"sync"
)

// viewMin is the length from which a request's top-level string or bytes
// arg is a view into its frame's buffer, and from which a frame is read
// into a pooled buffer; a shorter string costs less to copy. A power of
// two, the smallest pooled size.
const viewMin = 1 << 10

// readBufs pools read buffers by size class: class c holds buffers of
// viewMin<<c bytes (readClass), up to maxPooledBuf. A larger frame gets a
// one-off buffer.
var readBufs [11]sync.Pool

func readClass(n int) int { return bits.Len(uint(n-1) / viewMin) }

func getReadBuf(n int) *[]byte {
	if c := readClass(n); c < len(readBufs) {
		if p, _ := readBufs[c].Get().(*[]byte); p != nil {
			return p
		}
		n = viewMin << c
	}
	b := make([]byte, n)
	return &b
}

// putReadBuf returns p to its pool, under the race detector poisoned first,
// so a view kept past its release reads poison, not the next frame.
func putReadBuf(p *[]byte) {
	b := *p
	if poisonReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
	if c := readClass(len(b)); c < len(readBufs) && len(b) == viewMin<<c {
		readBufs[c].Put(p)
	}
}

const poisonByte = 0xdb

// Borrowed is a message decoded by FrameReader.NextBorrowed into a
// recycled object. Like the args a CORBA ORB hands a DSI servant, a
// request's or oneway's Req and Args are borrowed: the args array is the
// object's own, and each top-level string or bytes arg of viewMin bytes or
// more is a view into the pooled buffer the frame was read into. All of it
// is valid until Release. A servant that keeps a string arg past its
// return keeps Keep(s); tables, object references and shorter strings are
// its own. Other messages are decoded as Decode does them.
type Borrowed struct {
	Message
	req  Request
	args [maxFusedValues]Value
	buf  *[]byte // the pooled buffer holding the frame, or nil
}

var borrowedPool = sync.Pool{New: func() any { return new(Borrowed) }}

// NextBorrowed reads one frame and decodes it as Decode does, except that
// a request or oneway comes back borrowed. A frame of viewMin bytes or more
// is always read into a pooled buffer of its own, never the reader's, so
// its views outlive the reader's next frame. Release the message once it
// has been handled, however that ends. Call it from the goroutine that
// reads fr.
func (fr *FrameReader) NextBorrowed() (*Borrowed, error) {
	n, err := fr.header()
	if err != nil {
		return nil, err
	}
	b := borrowedPool.Get().(*Borrowed)
	var payload []byte
	if n >= viewMin {
		b.buf = getReadBuf(n)
		payload = (*b.buf)[:n]
	} else {
		payload = fr.payload(n)
	}
	if payload, err = fr.body(payload); err == nil {
		var msg *Message
		if msg, err = decodeMessage(payload, fr.interned(), b); err == nil {
			b.Message = *msg // a request's is b's own already
		}
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Release returns b, and the buffer its views point into, to their pools.
// Nothing decoded into b may be used afterwards.
func (b *Borrowed) Release() {
	if b.buf != nil {
		putReadBuf(b.buf)
	}
	*b = Borrowed{}
	borrowedPool.Put(b)
}

// Keep returns s as a string its caller may keep: s itself when it is
// shorter than viewMin, which a borrowed request never views, else a copy.
// A servant calls it on a string arg it keeps past its return.
func Keep(s string) string {
	if len(s) < viewMin {
		return s
	}
	return strings.Clone(s)
}
