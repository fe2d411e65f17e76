package orb

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBatchBytes is the pending-byte threshold that flushes a write
// batch early (see ClientOptions.BatchWindow, ServerOptions.BatchWindow).
const DefaultBatchBytes = 32 << 10

// connWriter is the write side of one connection, the client's or the
// server's. Every frame bound for the connection — requests, replies,
// pushed events — goes through it, so no two frames ever interleave bytes.
// With batching enabled frames detour through its frameBatch instead of
// going straight to the wire.
type connWriter struct {
	conn  net.Conn
	mu    sync.Mutex  // held across every Write on conn
	batch *frameBatch // non-nil when write batching is enabled
}

// writeFrame sends one complete frame (header + payload, see
// wire.FrameBuffer.Frame): queued when batching is enabled — the flush
// applies the batch's own write timeout — and otherwise written under the
// write lock, bounded by deadline when non-zero. A deadline that passed
// while the caller queued for the lock fails with errWriteExpired before
// any byte of frame is written.
func (w *connWriter) writeFrame(frame []byte, deadline time.Time) error {
	if w.batch != nil {
		return w.batch.add(frame)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return errWriteExpired
	}
	return w.writeLocked(frame, deadline)
}

// errWriteExpired reports a frame never written because its deadline had
// passed: the stream is intact. It matches os.ErrDeadlineExceeded, as the
// failed Write it stands in for would.
var errWriteExpired = fmt.Errorf("orb: write deadline passed before the write: %w", os.ErrDeadlineExceeded)

// writeLocked sends p in one Write; the caller holds w.mu. The deadline is
// set and cleared inside the lock, so concurrent writers' deadlines never
// clobber each other.
func (w *connWriter) writeLocked(p []byte, deadline time.Time) error {
	if !deadline.IsZero() {
		_ = w.conn.SetWriteDeadline(deadline)
		defer func() { _ = w.conn.SetWriteDeadline(time.Time{}) }()
	}
	_, err := w.conn.Write(p)
	return err
}

// frameBatch coalesces complete frames into one buffer and writes them
// with a single syscall, either when the flush window elapses or when the
// pending bytes pass the threshold. Frames are already length-prefixed, so
// batching needs no wire-format change: the receiver's FrameReader splits
// the coalesced write back into frames. A pipelining client and the server
// answering it use the same type; only the fields below the lock differ.
//
// The buffer is borrowed from batchBufPool at a batch's first frame and
// goes back as soon as the flush's Write returns, so it has one owner at a
// time — the batch while frames collect, the flushing goroutine during the
// Write — and an idle connection holds no batch memory.
//
// Lock order: b.mu is leaf-level for add/stop; the flush path holds w.mu
// while taking the buffer under b.mu, never the reverse. A write failure
// runs onFail *outside* both locks (the client's closes the connection,
// which stops the batch, which takes b.mu again).
type frameBatch struct {
	w       *connWriter
	window  time.Duration
	limit   int
	timeout time.Duration // bound on one flush's Write (0 = none)
	onFail  func(error)   // a flush's Write failed: drop the connection
	frames  *atomic.Uint64
	flushes *atomic.Uint64

	mu      sync.Mutex
	buf     *batchBuf   // nil between batches
	timer   *time.Timer // created on first use, re-armed once per batch
	armed   bool
	stopErr error // non-nil once stopped; what add reports from then on
}

// batchBuf is a pooled batch buffer. The pool is shared by every batching
// connection in the process, so what a burst grew is reused by whichever
// connection flushes next instead of being regrown from nothing per batch.
type batchBuf struct{ b []byte }

// maxPooledBatch bounds the capacity of buffers returned to the pool, so a
// batch that swallowed one giant frame does not pin its memory.
const maxPooledBatch = 256 << 10

var batchBufPool = sync.Pool{New: func() any { return new(batchBuf) }}

func putBatchBuf(bb *batchBuf) {
	if cap(bb.b) > maxPooledBatch {
		return
	}
	bb.b = bb.b[:0]
	batchBufPool.Put(bb)
}

// add appends frame to the batch. The bytes are copied (the caller's
// buffer goes back to its own pool right after) and the flush timer is
// armed on the first frame of a batch. Crossing the byte threshold flushes
// inline on the caller.
func (b *frameBatch) add(frame []byte) error {
	b.mu.Lock()
	if b.stopErr != nil {
		err := b.stopErr
		b.mu.Unlock()
		return err
	}
	if b.buf == nil {
		b.buf = batchBufPool.Get().(*batchBuf)
	}
	b.buf.b = append(b.buf.b, frame...)
	b.frames.Add(1)
	if len(b.buf.b) >= b.limit {
		b.mu.Unlock()
		return b.flush()
	}
	if !b.armed {
		b.armed = true
		if b.timer == nil {
			b.timer = time.AfterFunc(b.window, b.windowElapsed)
		} else {
			b.timer.Reset(b.window)
		}
	}
	b.mu.Unlock()
	return nil
}

func (b *frameBatch) windowElapsed() { _ = b.flush() }

// flush takes the pending batch and writes it as one syscall under the
// connection's write lock. Concurrent flushes serialize on that lock;
// whichever runs first takes the buffer and the rest write nothing.
func (b *frameBatch) flush() error {
	b.w.mu.Lock()
	b.mu.Lock()
	bb := b.buf
	b.buf = nil
	b.disarm()
	b.mu.Unlock()
	if bb == nil { // already flushed, or stopped
		b.w.mu.Unlock()
		return nil
	}
	var deadline time.Time
	if b.timeout > 0 {
		deadline = time.Now().Add(b.timeout)
	}
	// Counted before the Write: a peer can answer the batch, and a caller
	// read the counter, before this goroutine runs again after it.
	b.flushes.Add(1)
	err := b.w.writeLocked(bb.b, deadline)
	b.w.mu.Unlock()
	putBatchBuf(bb)
	if err != nil {
		// The stream position is undefined mid-batch: the connection goes,
		// which is the same outcome an unbatched write failure has.
		err = fmt.Errorf("orb: batched write failed: %w", err)
		b.stop(err)
		b.onFail(err)
		return err
	}
	return nil
}

// disarm cancels a pending window flush (called with b.mu held).
func (b *frameBatch) disarm() {
	if b.armed {
		b.timer.Stop()
		b.armed = false
	}
}

// stop retires the batch on connection death; err (non-nil) is what add
// reports from then on. Pending frames are dropped — their requests
// complete with the connection's death error through the pending map, the
// same outcome an unbatched write failure has. The first stop wins.
func (b *frameBatch) stop(err error) {
	b.mu.Lock()
	if b.stopErr == nil {
		b.stopErr = err
	}
	if b.buf != nil {
		putBatchBuf(b.buf)
		b.buf = nil
	}
	b.disarm()
	b.mu.Unlock()
}
