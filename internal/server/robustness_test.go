package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/faults"
	"btreeperf/internal/pagestore"
)

// leakCheck snapshots the goroutine count and returns a func that fails
// the test if the count has not returned to the baseline (plus a small
// slack for runtime helpers) within 5 seconds.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestMaxConnsBusy: the connection past the cap gets one StatusBusy
// frame and a close; capped conns keep working; a slot freed by a close
// is reusable.
func TestMaxConnsBusy(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, MaxConns: 2})
	defer shutdown()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Round-trip both so the accept loop has registered them.
	for _, c := range []*Client{c1, c2} {
		if resp, err := c.Do(Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
			t.Fatalf("ping: %+v err=%v", resp, err)
		}
	}

	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c3.SetOpTimeout(2 * time.Second)
	resp, err := c3.Recv() // Busy frame arrives unsolicited, then EOF
	if err != nil {
		t.Fatalf("over-cap conn: %v, want StatusBusy frame", err)
	}
	if resp.Status != StatusBusy {
		t.Fatalf("over-cap conn got status %d, want StatusBusy", resp.Status)
	}
	if _, err := c3.Recv(); err == nil {
		t.Fatal("over-cap conn stayed open after Busy")
	}
	c3.Close()
	if got := s.Governor().ConnRejects; got != 1 {
		t.Fatalf("conn_rejects=%d, want 1", got)
	}

	// Capped conns unaffected; freeing one admits a newcomer.
	if resp, err := c1.Do(Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("capped conn broken after rejection: %+v err=%v", resp, err)
	}
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c4.SetOpTimeout(time.Second)
		resp, err := c4.Do(Request{Op: OpPing})
		c4.Close()
		if err == nil && resp.Status == StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("freed slot never became admittable: %+v err=%v", resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleTimeoutReapsHalfOpenConn: a connected peer that goes silent
// (half-open) is closed by the idle deadline without disturbing others.
func TestIdleTimeoutReapsHalfOpenConn(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, IdleTimeout: 100 * time.Millisecond})
	defer shutdown()

	silent, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetOpTimeout(5 * time.Second)
	if _, err := silent.Recv(); err == nil {
		t.Fatal("silent conn delivered a response")
	} // EOF once reaped

	deadline := time.Now().Add(5 * time.Second)
	for s.readTimeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle conn never counted as read timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server is still fully serviceable.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Do(Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("server unserviceable after reaping idle conn: %+v err=%v", resp, err)
	}
}

// TestSlowLorisReaped: trickling a frame one byte at a time does not
// reset the idle deadline — the whole frame must arrive within it.
func TestSlowLorisReaped(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, IdleTimeout: 150 * time.Millisecond})
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A get frame is 4+9 bytes; send one byte every 50ms so bytes keep
	// flowing but no frame ever completes within 150ms.
	frame := AppendRequest(nil, Request{Op: OpGet, Key: 1})
	closed := false
	for i := 0; i < len(frame) && !closed; i++ {
		if _, err := conn.Write(frame[i : i+1]); err != nil {
			closed = true
			break
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := conn.Read(make([]byte, 1)); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				closed = true // server hung up on us — the desired outcome
			}
		}
	}
	if !closed {
		// Writes can succeed into buffers after the peer closed; confirm
		// via a read with a generous deadline.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("slow-loris conn still open after trickling a frame for %v", time.Duration(len(frame))*50*time.Millisecond)
		}
	}
	if s.readTimeouts.Load() == 0 {
		t.Fatal("slow-loris close not counted as read timeout")
	}
}

// pipeListener turns net.Pipe into a net.Listener so tests can exercise
// deadline paths on a transport with zero kernel buffering.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server side of a fresh pipe to Accept.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c1, c2 := net.Pipe()
	select {
	case l.conns <- c2:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeListener.dial: accept loop not draining")
	}
	return c1
}

// TestStalledWriterReaped: a peer that pipelines requests but never
// drains responses is killed by the write deadline instead of parking a
// writer goroutine forever, and the server drains cleanly afterwards.
func TestStalledWriterReaped(t *testing.T) {
	defer leakCheck(t)()
	s := New(Config{Algorithm: cbtree.LinkType, WriteTimeout: 150 * time.Millisecond, IdleTimeout: -1})
	ln := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	conn := ln.dial(t)
	defer conn.Close()
	var wire []byte
	for i := 0; i < 8; i++ {
		wire = AppendRequest(wire, Request{Op: OpPut, Key: int64(i), Val: 7})
	}
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(wire); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Never read. The first response write blocks on the pipe until the
	// write deadline kills the connection.
	deadline := time.Now().Add(5 * time.Second)
	for s.writeTimeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled writer never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain after reaping stalled writer")
	}
}

// TestFullCommitQueueBlocksAndDrains is the regression for a durable
// server's backpressure: with the committer held in its fsync, one
// connection's flood fills the commit queue and then blocks in its send.
// Nothing is answered — and nothing is shed Busy — until the fsync
// returns, after which every put is answered OK; and a drain that starts
// while the connection is blocked completes once the fsync is released.
func TestFullCommitQueueBlocksAndDrains(t *testing.T) {
	defer leakCheck(t)()
	fs := newGatedFS(pagestore.FailPlan{})
	// Every request a batch of its own: the flood is many more batches
	// than one group and a full queue hold.
	s := New(Config{Engine: newDiskEngine(t, DiskEngineConfig{FS: fs}), Depth: 512, MaxBatch: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(20 * time.Second)
	release := fs.hold()
	const n = 300
	for i := 0; i < n; i++ {
		c.Send(Request{Op: OpPut, Key: int64(i), Val: 1})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resps := make(chan Response, n)
	go func() {
		defer close(resps)
		for i := 0; i < n; i++ {
			resp, err := c.Recv()
			if err != nil {
				t.Errorf("response %d/%d lost: %v", i, n, err)
				return
			}
			resps <- resp
		}
	}()
	sh := s.shards[0]
	<-fs.entered // the committer is in the first group's fsync
	waitFor(t, "the connection to fill the commit queue", func() bool { return len(sh.commitq) == cap(sh.commitq) })
	cancel()
	time.Sleep(50 * time.Millisecond)
	select {
	case resp := <-resps:
		t.Fatalf("answered %+v while the fsync was held", resp)
	case err := <-done:
		t.Fatalf("Serve returned (%v) with puts waiting for their commit", err)
	default:
	}

	release()
	got := 0
	for resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("put %d answered status %d after the release, want OK", got, resp.Status)
		}
		got++
	}
	if got != n {
		t.Fatalf("%d of %d puts answered", got, n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain deadlocked behind a full commit queue")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableShardHasNoGovernor: a durable shard has no lock probe, so
// no root ρ_w to govern by, and Serve starts no governor for it. Fed a
// saturated ρ_w source at a short interval — a running governor would be
// shedding within one — and flooded with puts, it answers no Overload and
// reports its governor disabled on /metrics and /healthz.
func TestDurableShardHasNoGovernor(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{
		Engines:  diskEngines(t, t.TempDir(), 2),
		Governor: GovernorConfig{Interval: time.Millisecond, RecoverTicks: 1},
	})
	defer s.Close()
	defer shutdown()
	for _, sh := range s.shards {
		sh.gov.rhoFn = func() float64 { return 0.9 }
	}
	var wg sync.WaitGroup
	var overloads atomic.Int64
	for ci := 0; ci < 4; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetOpTimeout(10 * time.Second)
			for r := 0; r < 20; r++ {
				if err := burst(c, int64(ci)<<32|int64(r*64), 64); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 64; i++ {
					resp, err := c.Recv()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Status == StatusOverload {
						overloads.Add(1)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	if n := overloads.Load(); n != 0 {
		t.Fatalf("%d puts answered Overload by a durable server", n)
	}
	if g := s.Governor(); !g.Disabled || g.Transitions != 0 || g.ShedOverload != 0 {
		t.Fatalf("governor status %+v, want disabled and idle", g)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, ep := range []struct{ path, want string }{
		{"/metrics", "governor state=disabled "},
		{"/metrics", "governor=disabled poisoned=false"}, // a shard block
		{"/healthz", "governor=disabled "},
		{"/healthz", "shard=1 state=disabled "},
	} {
		resp, err := http.Get(hs.URL + ep.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), ep.want) {
			t.Fatalf("%s answered %d without %q:\n%s", ep.path, resp.StatusCode, ep.want, body)
		}
	}
}

// TestGovernorShedsWritesAndRecovers drives the governor through its
// full state machine with an injected ρ_w source and checks admission
// and /healthz at every stage.
func TestGovernorShedsWritesAndRecovers(t *testing.T) {
	s := New(Config{
		Algorithm: cbtree.LinkType,
		Governor:  GovernorConfig{Interval: 5 * time.Millisecond, RecoverTicks: 2},
	})
	var rho atomic.Uint64
	setRho := func(v float64) { rho.Store(uint64(v * 1e6)) }
	s.shards[0].gov.rhoFn = func() float64 { return float64(rho.Load()) / 1e6 }
	setRho(0.01)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("Serve did not drain")
		}
	}()

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	waitState := func(want GovState) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.Governor().State != want {
			if time.Now().After(deadline) {
				t.Fatalf("governor stuck in %v, want %v", s.Governor().State, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	healthz := func() int {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(5 * time.Second)

	// Healthy: everything admitted.
	waitState(GovOK)
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz ok state: %d", code)
	}
	if resp, _ := c.Do(Request{Op: OpPut, Key: 1, Val: 1}); resp.Status != StatusOK {
		t.Fatalf("healthy put: %+v", resp)
	}

	// Saturated: updates shed, reads and pings keep flowing.
	setRho(0.9)
	waitState(GovOverloaded)
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz overloaded: %d, want 503", code)
	}
	if resp, err := c.Do(Request{Op: OpPut, Key: 2, Val: 2}); err != nil || resp.Status != StatusOverload {
		t.Fatalf("overloaded put: %+v err=%v, want StatusOverload", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpDel, Key: 1}); err != nil || resp.Status != StatusOverload {
		t.Fatalf("overloaded del: %+v err=%v, want StatusOverload", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpGet, Key: 1}); err != nil || resp.Status != StatusOK {
		t.Fatalf("overloaded get: %+v err=%v, want reads admitted", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("overloaded ping: %+v err=%v", resp, err)
	}
	if s.Governor().ShedOverload < 2 {
		t.Fatalf("shed_overload=%d, want >= 2", s.Governor().ShedOverload)
	}
	if got := s.shards[0].tree.Len(); got != 1 {
		t.Fatalf("tree mutated while shedding: %d keys, want 1", got)
	}

	// Hysteretic recovery: below exitRho for RecoverTicks → degraded →
	// ok, and updates are admitted again.
	setRho(0.01)
	waitState(GovOK)
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz recovered: %d", code)
	}
	if resp, err := c.Do(Request{Op: OpPut, Key: 3, Val: 3}); err != nil || resp.Status != StatusOK {
		t.Fatalf("recovered put: %+v err=%v", resp, err)
	}
	if s.Governor().Transitions < 2 {
		t.Fatalf("transitions=%d, want >= 2", s.Governor().Transitions)
	}

	// Degraded: between exit and enter thresholds, nothing shed.
	setRho(0.45)
	waitState(GovDegraded)
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz degraded: %d, want 200", code)
	}
	if resp, err := c.Do(Request{Op: OpPut, Key: 4, Val: 4}); err != nil || resp.Status != StatusOK {
		t.Fatalf("degraded put shed: %+v err=%v", resp, err)
	}
}

// TestChaosKillUnderLoad floods a fault-injected server (latency,
// stalls, resets, truncations, drops) with pipelining clients that redial
// whenever a fault kills their connection, then cancels mid-load: Serve
// must drain without deadlock and without leaking goroutines.
func TestChaosKillUnderLoad(t *testing.T) {
	defer leakCheck(t)()

	s := New(Config{
		Algorithm:    cbtree.LinkType,
		IdleTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
	})
	inj := faults.New(faults.Config{
		Seed:    42,
		Latency: 50 * time.Microsecond,
		PStall:  0.002, Stall: 20 * time.Millisecond,
		PReset: 0.005,
		PTrunc: 0.002,
		PDrop:  0.05,
	})
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := rawLn.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, inj.Listener(rawLn)) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var opsDone atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := DialTimeout(addr, 250*time.Millisecond)
				if err != nil {
					continue
				}
				c.SetOpTimeout(250 * time.Millisecond)
				for j := 0; j < 100; j++ {
					if err := c.Send(Request{Op: OpPut, Key: int64(j), Val: 9}); err != nil {
						break
					}
				}
				c.Flush()
				for j := 0; j < 100; j++ {
					if _, err := c.Recv(); err != nil {
						break
					}
					opsDone.Add(1)
				}
				c.Close()
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve under chaos: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve deadlocked draining under chaos")
	}
	close(stop)
	wg.Wait()
	st := inj.Stats()
	if st.Resets+st.Drops+st.Truncs == 0 {
		t.Fatalf("chaos injected nothing (%v); test proves nothing", st)
	}
	t.Logf("chaos survived: %d client ops, faults %v", opsDone.Load(), st)
}
