package server

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// deadlineCountConn counts the read deadlines set on it.
type deadlineCountConn struct {
	net.Conn
	readDeadlines atomic.Int64
}

func (c *deadlineCountConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// TestRecvArmsDeadlineOnlyWhenItMayBlock: the replies of a pipelined
// burst arrive together, and only the Recv that waits for the wire moves
// the connection's read deadline; a reply that is not there whole — none
// of it, or the first half of its frame — still times out.
func TestRecvArmsDeadlineOnlyWhenItMayBlock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const burst = 64
	half, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var buf []byte
		for i := 0; i < burst; i++ {
			buf = AppendResponse(buf, Response{Status: StatusOK, HasVal: true, Val: uint64(i)})
		}
		peer.Write(buf)
		<-half
		frame := AppendResponse(nil, Response{Status: StatusOK, HasVal: true, Val: 7})
		peer.Write(frame[:len(frame)/2])
		<-done // the rest never comes
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &deadlineCountConn{Conn: raw}
	c := NewClient(conn)
	defer c.Close()
	c.SetOpTimeout(200 * time.Millisecond)

	for i := 0; i < burst; i++ {
		resp, err := c.Recv()
		if err != nil || resp.Val != uint64(i) {
			t.Fatalf("reply %d: %+v, %v", i, resp, err)
		}
		if i == 0 && c.br.Buffered() == 0 {
			t.Skip("the burst did not arrive in one read")
		}
	}
	// One for the Recv that waited, and one more at most if the burst
	// came in two segments.
	if n := conn.readDeadlines.Load(); n < 1 || n > 2 {
		t.Fatalf("%d read deadlines set for a burst of %d buffered replies, want 1 (2 at most)", n, burst)
	}

	// Nothing buffered and nothing coming: the deadline must be fresh,
	// not the one the burst's first Recv left behind.
	time.Sleep(250 * time.Millisecond)
	t0 := time.Now()
	if _, err := c.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv on a silent connection: %v, want deadline exceeded", err)
	}
	if d := time.Since(t0); d < 150*time.Millisecond {
		t.Fatalf("Recv timed out after %v on a stale deadline, want about 200ms", d)
	}

	// Half a frame buffered: Recv has to wait for the rest, under a deadline.
	close(half)
	time.Sleep(50 * time.Millisecond)
	before := conn.readDeadlines.Load()
	if _, err := c.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv of a torn frame: %v, want deadline exceeded", err)
	}
	if conn.readDeadlines.Load() == before {
		t.Fatal("Recv waited for the rest of a frame without a deadline")
	}
}

// muteServer accepts connections on an ephemeral port and reads from
// them without ever answering; it returns the address.
func muteServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientRecvDeadline is the regression for the hang: the server
// accepts and reads but never answers; Recv must fail with a deadline
// error instead of blocking forever.
func TestClientRecvDeadline(t *testing.T) {
	c, err := Dial(muteServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(100 * time.Millisecond)
	t0 := time.Now()
	_, err = c.Do(Request{Op: OpPing})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Do on a mute server: %v, want deadline exceeded", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
}

// TestClientRecvClosed: a Close from another goroutine surfaces
// net.ErrClosed out of a blocked Recv, not a hang or a panic.
func TestClientRecvClosed(t *testing.T) {
	c, err := Dial(muteServer(t))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Recv after Close: %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after Close")
	}
}
