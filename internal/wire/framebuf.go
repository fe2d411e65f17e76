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
// that reuses its payload buffer across frames.
//
// The codec guarantees decoded values never alias the input buffer (all
// string/bytes payloads are copied by Go string conversion), which is what
// makes payload-buffer reuse safe.

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
// internal bufio.Reader, reusing one payload buffer across frames. The
// slice returned by Next is valid only until the following Next call:
// decode the frame (the codec copies everything it keeps) before reading
// the next one.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
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
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var buf []byte
	if n > maxPooledBuf {
		// Oversized frame: serve it from a one-off allocation so the
		// retained buffer stays small.
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
