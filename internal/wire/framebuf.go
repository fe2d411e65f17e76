package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync"
)

// Hot-path framing support: pooled encode buffers that carry the 4-byte
// length prefix inline, so a complete frame (header + payload) is built
// once and written with a single Write call, and a buffered frame reader
// that reuses its payload buffer across frames and interns the short
// strings its connection repeats.
//
// Decoded values never alias the input buffer: every string is either a
// fresh copy or an interned one, and both are ordinary Go strings. That is
// what makes payload-buffer reuse safe.

// FrameBuffer is a reusable encode buffer whose first 4 bytes are reserved
// for the frame length prefix. Encode the payload by appending to B (after
// the reserved header), then call WriteTo, which patches the prefix and
// writes the whole frame in one Write.
type FrameBuffer struct {
	// B holds the frame under construction: 4 reserved header bytes
	// followed by the payload encoded so far.
	B []byte
}

// Payload returns the payload encoded so far (everything after the header).
func (fb *FrameBuffer) Payload() []byte { return fb.B[frameHeaderLen:] }

// WriteFrame patches the length prefix and writes header+payload as one Write.
func (fb *FrameBuffer) WriteFrame(w io.Writer) error {
	frame, err := fb.Frame()
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// Frame patches the length prefix and returns the complete frame
// (header + payload), ready to be written or coalesced into a batch. The
// slice aliases fb.B and is invalidated by PutFrameBuffer.
func (fb *FrameBuffer) Frame() ([]byte, error) {
	n := len(fb.B) - frameHeaderLen
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(fb.B[:frameHeaderLen], uint32(n))
	return fb.B, nil
}

const frameHeaderLen = 4

// maxPooledBuf bounds the capacity of buffers returned to the pool so one
// giant frame does not pin its memory for the life of the process.
const maxPooledBuf = 1 << 20

var frameBufPool = sync.Pool{
	New: func() any {
		return &FrameBuffer{B: make([]byte, frameHeaderLen, 512)}
	},
}

// GetFrameBuffer returns a pooled frame buffer with the header reserved and
// an empty payload. Return it with PutFrameBuffer once the frame has been
// written (the buffer must not be referenced afterwards).
func GetFrameBuffer() *FrameBuffer {
	fb := frameBufPool.Get().(*FrameBuffer)
	fb.B = fb.B[:frameHeaderLen]
	return fb
}

// PutFrameBuffer returns fb to the pool. Oversized buffers are dropped.
func PutFrameBuffer(fb *FrameBuffer) {
	if fb == nil || cap(fb.B) > maxPooledBuf {
		return
	}
	frameBufPool.Put(fb)
}

// FrameReader reads length-prefixed frames from a connection through an
// internal bufio.Reader, reusing one payload buffer (up to maxReaderBuf)
// across frames. The slice returned by Next is valid only until the
// following Next call: decode the frame before reading the next one.
//
// Decode interns strings of 1 to maxInterned bytes in a hashed table of
// internSlots entries, so the keys, names and object keys a connection
// sends on every message are allocated once, not once per message. The
// table belongs to whoever reads the connection, one goroutine at a time
// (the ORB's read role), so it takes no lock.
type FrameReader struct {
	br   *bufio.Reader
	buf  []byte
	hdr  [frameHeaderLen]byte // here, not on the stack: io.ReadFull would move it to the heap
	strs *internTable         // allocated by the first Decode
}

// maxReaderBuf bounds the payload buffer a FrameReader keeps between
// frames; a larger frame is read into a buffer of its own.
const maxReaderBuf = 64 << 10

const (
	internSlots = 64
	maxInterned = 32
)

// internTable is 32 sets of two strings. A miss moves the set's first
// string to its second place, so two strings a connection repeats can
// share a set without evicting each other on every message.
type internTable [internSlots]string

// intern returns b as a string: the cached one when its set holds the same
// bytes, else a fresh copy.
func (t *internTable) intern(b []byte) string {
	i := internSet(b) * 2
	if t[i] == string(b) {
		return t[i]
	}
	if t[i+1] == string(b) {
		return t[i+1]
	}
	t[i+1], t[i] = t[i], string(b)
	return t[i]
}

// internSet hashes b to a set. The hash has no per-process seed, so which
// strings share a set, and what a decode allocates, repeats from run to run.
func internSet(b []byte) int {
	const m = 0x9e3779b97f4a7c15 // Fibonacci hashing: the top bits of h*m mix every bit of h
	h := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return int((h ^ tail) * m >> 59) // the top 5 bits: internSlots/2 sets
}

// NewFrameReader returns a frame reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 8<<10)}
}

// Buffered reports how many bytes have been read off the connection but not
// yet returned by Next: non-zero means the peer has already sent more.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Next reads one frame and returns its payload, rejecting frames larger
// than MaxFrameSize. The returned slice is reused by the next call.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var buf []byte
	if n > maxReaderBuf {
		// A big frame gets a one-off buffer, so a connection keeps at most
		// maxReaderBuf of payload memory between frames.
		buf = make([]byte, n)
	} else {
		if cap(fr.buf) < n {
			fr.buf = make([]byte, n)
		}
		buf = fr.buf[:n]
	}
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		return nil, err
	}
	return buf, nil
}

// Decode decodes a frame payload as DecodeMessage does, taking short
// strings from the reader's intern table. Call it from the goroutine that
// reads fr.
func (fr *FrameReader) Decode(payload []byte) (*Message, error) {
	if fr.strs == nil {
		fr.strs = new(internTable)
	}
	return decodeMessage(payload, fr.strs)
}
