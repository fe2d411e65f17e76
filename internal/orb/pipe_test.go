package orb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// The in-process conn must behave as net.Pipe does: each case below runs
// against net.Pipe as the reference and against the conn InprocNetwork
// dials, and both must report the same outcome, errors compared by their
// errors.Is identities.

// outcome names what a Read or Write returned, by error identity.
func outcome(n int, err error) string {
	var op *net.OpError
	switch {
	case err == nil:
		return fmt.Sprintf("%d ok", n)
	case err == io.EOF:
		return fmt.Sprintf("%d EOF", n)
	case err == io.ErrClosedPipe:
		return fmt.Sprintf("%d closed", n)
	case errors.Is(err, os.ErrDeadlineExceeded) && errors.As(err, &op):
		return fmt.Sprintf("%d %s timeout", n, op.Op)
	}
	return fmt.Sprintf("%d unexpected %T %v", n, err, err)
}

// await returns what a blocked call reported, failing after a while.
func await(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case s := <-ch:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("a call stayed blocked")
		return ""
	}
}

func goRead(c net.Conn, size int) <-chan string {
	ch := make(chan string, 1)
	go func() {
		n, err := c.Read(make([]byte, size))
		ch <- outcome(n, err)
	}()
	return ch
}

func goWrite(c net.Conn, b []byte) <-chan string {
	ch := make(chan string, 1)
	go func() { ch <- outcome(c.Write(b)) }()
	return ch
}

// blocked lets a call started just before reach its wait.
func blocked() { time.Sleep(20 * time.Millisecond) }

// pending reports what a call started earlier returned, or that it has not.
func pending(ch <-chan string) string {
	blocked()
	select {
	case s := <-ch:
		return s
	default:
		return "pending"
	}
}

var pipeContract = []struct {
	name string
	run  func(t *testing.T, a, b net.Conn) []string
}{
	{"deadline already past", func(t *testing.T, a, b net.Conn) []string {
		past := time.Now().Add(-time.Second)
		_ = a.SetReadDeadline(past)
		_ = a.SetWriteDeadline(past)
		out := []string{await(t, goRead(a, 4)), await(t, goWrite(a, []byte("x")))}
		peer := goRead(b, 4) // a peer waiting does not rescue a passed deadline
		blocked()
		out = append(out, await(t, goWrite(a, []byte("y"))))
		_ = a.SetDeadline(time.Time{}) // cleared: the conn works again
		out = append(out, await(t, goWrite(a, []byte("zz"))), await(t, peer))
		return out
	}},
	{"deadlines at the ends of time", func(t *testing.T, a, b net.Conn) []string {
		_ = a.SetReadDeadline(time.Unix(0, 0)) // the Unix epoch: passed, not "none"
		_ = a.SetWriteDeadline(time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
		out := []string{await(t, goRead(a, 4))}
		r := goRead(b, 4)
		out = append(out, await(t, goWrite(a, []byte("far"))), await(t, r))
		return append(out, a.LocalAddr().Network(), a.RemoteAddr().String())
	}},
	{"deadline extended while blocked", func(t *testing.T, a, b net.Conn) []string {
		_ = a.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_ = a.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		r, w := goRead(a, 8), goWrite(a, []byte("late"))
		blocked()
		_ = a.SetReadDeadline(time.Now().Add(time.Hour))
		_ = a.SetWriteDeadline(time.Now().Add(time.Hour))
		time.Sleep(200 * time.Millisecond) // past the first deadlines
		out := []string{outcome(b.Write([]byte("on time"))), await(t, r)}
		out = append(out, outcome(b.Read(make([]byte, 8))), await(t, w))
		return out
	}},
	{"deadline passes while blocked", func(t *testing.T, a, b net.Conn) []string {
		_ = a.SetDeadline(time.Now().Add(30 * time.Millisecond))
		r, w := goRead(a, 8), goWrite(a, []byte("unread"))
		return []string{await(t, r), await(t, w)}
	}},
	{"past read deadline wakes a blocked Read", func(t *testing.T, a, b net.Conn) []string {
		r := goRead(a, 8)
		blocked()
		start := time.Now()
		_ = a.SetReadDeadline(time.Now().Add(-time.Second))
		out := []string{await(t, r)}
		if d := time.Since(start); d > time.Second {
			t.Errorf("the blocked Read returned %v after its deadline was set in the past", d)
		}
		_ = a.SetReadDeadline(time.Time{})
		r = goRead(a, 8)
		return append(out, outcome(b.Write([]byte("again"))), await(t, r))
	}},
	{"Close wakes blocked Reads on both ends", func(t *testing.T, a, b net.Conn) []string {
		ar, br := goRead(a, 8), goRead(b, 8)
		blocked()
		_ = a.Close()
		return []string{await(t, ar), await(t, br),
			outcome(a.Write([]byte("x"))), outcome(b.Write([]byte("x"))), outcome(b.Read(make([]byte, 1))),
			fmt.Sprint(a.SetDeadline(time.Now())), fmt.Sprint(b.SetReadDeadline(time.Now()))}
	}},
	{"Close wakes blocked Writes on both ends", func(t *testing.T, a, b net.Conn) []string {
		aw, bw := goWrite(a, []byte("never read")), goWrite(b, []byte("nor this"))
		blocked()
		_ = b.Close()
		return []string{await(t, aw), await(t, bw), outcome(a.Read(make([]byte, 1))),
			fmt.Sprint(b.SetWriteDeadline(time.Now())), fmt.Sprint(a.Close()), fmt.Sprint(b.Close())}
	}},
	{"one large write drained by small reads", func(t *testing.T, a, b net.Conn) []string {
		msg := bytes.Repeat([]byte("0123456789"), 100)
		w := goWrite(a, msg)
		var got []byte
		var sizes []string
		buf := make([]byte, 7)
		for len(got) < len(msg) {
			n, err := b.Read(buf)
			if err != nil {
				return append(sizes, outcome(n, err))
			}
			got = append(got, buf[:n]...)
			sizes = append(sizes, fmt.Sprint(n))
		}
		return []string{strings.Join(sizes, ","), fmt.Sprint(bytes.Equal(got, msg)), await(t, w)}
	}},
	{"zero-length write waits for a read", func(t *testing.T, a, b net.Conn) []string {
		w := goWrite(a, nil)
		out := []string{pending(w), outcome(b.Read(make([]byte, 8))), await(t, w)}
		r := goRead(b, 8) // a Read already waiting takes it as well
		blocked()
		return append(out, outcome(a.Write([]byte{})), await(t, r))
	}},
	{"read into a zero-length buffer", func(t *testing.T, a, b net.Conn) []string {
		w := goWrite(a, []byte("abc"))
		blocked()
		out := []string{outcome(b.Read(nil)), pending(w), outcome(b.Read(make([]byte, 8))), await(t, w)}
		r := goRead(b, 0) // waiting first: a Write fills it with nothing
		blocked()
		w = goWrite(a, []byte("xy"))
		out = append(out, await(t, r), pending(w))
		return append(out, outcome(b.Read(make([]byte, 8))), await(t, w))
	}},
	{"write deadline passes after a partial take", func(t *testing.T, a, b net.Conn) []string {
		w := goWrite(a, bytes.Repeat([]byte("0123456789"), 100))
		blocked()
		out := []string{outcome(b.Read(make([]byte, 7)))}
		_ = a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
		return append(out, await(t, w))
	}},
	{"Close while a write is half taken", func(t *testing.T, a, b net.Conn) []string {
		w := goWrite(a, bytes.Repeat([]byte("0123456789"), 100))
		blocked()
		out := []string{outcome(b.Read(make([]byte, 7)))}
		_ = b.Close()
		return append(out, await(t, w), outcome(b.Read(make([]byte, 7))))
	}},
	{"read deadline passes after the buffer is filled", func(t *testing.T, a, b net.Conn) []string {
		_ = b.SetReadDeadline(time.Now().Add(time.Hour))
		r := goRead(b, 8)
		blocked()
		out := []string{outcome(a.Write([]byte("abc")))}
		_ = b.SetReadDeadline(time.Now().Add(-time.Second)) // the data was there first
		return append(out, await(t, r), outcome(b.Read(make([]byte, 8))))
	}},
	{"concurrent writers never interleave", func(t *testing.T, a, b net.Conn) []string {
		const frame, frames = 4096, 20
		var wg sync.WaitGroup
		for _, c := range []byte("xy") {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					if _, err := a.Write(bytes.Repeat([]byte{c}, frame)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		got := make([]byte, 2*frame*frames)
		if _, err := io.ReadFull(readerFunc(func(p []byte) (int, error) {
			return b.Read(p[:min(len(p), 100)]) // small reads
		}), got); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		whole := 0
		for off := 0; off < len(got); off += frame {
			if bytes.Count(got[off:off+frame], got[off:off+1]) == frame {
				whole++
			}
		}
		return []string{fmt.Sprintf("%d whole frames", whole)}
	}},
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestPipeMatchesNetPipe(t *testing.T) {
	for _, tc := range pipeContract {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			matchNetPipe(t, tc.run)
		})
	}
}

// matchNetPipe runs one contract case on net.Pipe and on the in-process
// conn and compares what each reported.
func matchNetPipe(t *testing.T, run func(t *testing.T, a, b net.Conn) []string) {
	var results [2][]string
	for i, mk := range []func() (net.Conn, net.Conn){net.Pipe, func() (net.Conn, net.Conn) { return newPipe() }} {
		a, b := mk()
		results[i] = run(t, a, b)
		_, _ = a.Close(), b.Close()
	}
	ref, got := strings.Join(results[0], " | "), strings.Join(results[1], " | ")
	if ref != got {
		t.Errorf("in-process conn differs from net.Pipe:\n net.Pipe: %s\n     ours: %s", ref, got)
	}
}

// TestPipeWriteToWaitingReaderAllocatesNothing: the ORB sets a write deadline
// on every frame. On net.Pipe each one armed a new timer; here a write with a
// deadline to a peer already waiting in Read allocates nothing.
func TestPipeWriteToWaitingReaderAllocatesNothing(t *testing.T) {
	a, b := newPipe()
	defer a.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	msg := []byte("a frame")
	allocs := testing.AllocsPerRun(1000, func() {
		_ = a.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		_ = a.SetWriteDeadline(time.Time{})
	})
	_ = a.Close()
	<-done
	if allocs != 0 {
		t.Fatalf("a write with a deadline: %.1f allocs/op, want 0", allocs)
	}
}
