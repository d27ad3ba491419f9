package faults

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a wrapped client conn talking to a raw server conn
// over a real loopback TCP pair.
func pipePair(t *testing.T, inj *Injector) (client net.Conn, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := inj.Conn(raw)
	if wrapped == nil {
		t.Fatal("conn dropped with PDrop=0")
	}
	srv = <-done
	if srv == nil {
		t.Fatal("accept failed")
	}
	return wrapped, srv
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("latency=200us,jitter=1ms,pstall=0.25,stall=50ms,preset=0.5,ptrunc=0.125,pdrop=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, Latency: 200 * time.Microsecond, Jitter: time.Millisecond,
		PStall: 0.25, Stall: 50 * time.Millisecond, PReset: 0.5, PTrunc: 0.125, PDrop: 1,
	}
	if c != want {
		t.Fatalf("got %+v want %+v", c, want)
	}
	if c, err := ParseSpec("  "); err != nil || c != (Config{}) {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"nope=1", "latency", "preset=2", "latency=xyz"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	inj := New(Config{Latency: 30 * time.Millisecond})
	cl, srv := pipePair(t, inj)
	defer cl.Close()
	defer srv.Close()

	t0 := time.Now()
	if _, err := cl.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("write took %v, latency not injected", d)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Delayed == 0 {
		t.Fatal("no delayed I/O counted")
	}
}

func TestResetMidStream(t *testing.T) {
	inj := New(Config{PReset: 1, Seed: 3})
	cl, srv := pipePair(t, inj)
	defer cl.Close()
	defer srv.Close()

	if _, err := cl.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write on PReset=1 conn: %v, want net.ErrClosed", err)
	}
	// The peer observes the connection dying (RST or EOF).
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := srv.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
	if inj.Stats().Resets != 1 {
		t.Fatalf("resets=%d, want 1", inj.Stats().Resets)
	}
}

func TestTruncatedWrite(t *testing.T) {
	inj := New(Config{PTrunc: 1, Seed: 5})
	cl, srv := pipePair(t, inj)
	defer cl.Close()
	defer srv.Close()

	payload := []byte("0123456789abcdef")
	n, err := cl.Write(payload)
	if err == nil {
		t.Fatal("truncated write reported success")
	}
	if n != len(payload)/2 {
		t.Fatalf("wrote %d bytes, want truncation to %d", n, len(payload)/2)
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(srv)
	if len(got) > len(payload)/2 {
		t.Fatalf("peer received %d bytes past the truncation point", len(got))
	}
	if inj.Stats().Truncs != 1 {
		t.Fatalf("truncs=%d, want 1", inj.Stats().Truncs)
	}
}

func TestStallInjection(t *testing.T) {
	inj := New(Config{PStall: 1, Stall: 40 * time.Millisecond})
	cl, srv := pipePair(t, inj)
	defer cl.Close()
	defer srv.Close()

	t0 := time.Now()
	if _, err := cl.Write([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 35*time.Millisecond {
		t.Fatalf("write took %v, stall not injected", d)
	}
	if inj.Stats().Stalls == 0 {
		t.Fatal("no stalls counted")
	}
}

func TestDropAtAccept(t *testing.T) {
	inj := New(Config{PDrop: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := inj.Listener(ln)
	defer fln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		_, err := fln.Accept() // every conn dropped: blocks until listener closes
		acceptErr <- err
	}()
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			continue // reset raced the handshake: still a drop
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("dropped conn delivered data")
		}
		c.Close()
	}
	// Every dial either failed outright or saw its conn die; give the
	// accept loop a moment to drain the backlog before counting.
	deadline := time.Now().Add(2 * time.Second)
	for inj.Stats().Drops < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-acceptErr:
		t.Fatalf("Accept returned early: %v", err)
	default:
	}
	fln.Close()
	if err := <-acceptErr; err == nil {
		t.Fatal("Accept nil error after listener close")
	}
	if got := inj.Stats().Drops; got < 1 {
		t.Fatalf("drops=%d, want >= 1", got)
	}
}

// TestDeterminism: the same seed produces the same fault schedule.
func TestDeterminism(t *testing.T) {
	schedule := func(seed uint64) []bool {
		inj := New(Config{PReset: 0.5, Seed: seed})
		c := &Conn{inj: inj, cfg: inj.cfg}
		c.rng.Store(seed + 0x9e3779b97f4a7c15)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, c.chance(0.5))
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
	c := schedule(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestConnStreamsNotShifted: two connections of one injector draw
// unrelated streams. A stream that is another's shifted by some steps
// shares all but that many of its values with it; these share none.
func TestConnStreamsNotShifted(t *testing.T) {
	const n = 10000
	inj := New(Config{Seed: 11})
	draws := func() map[uint64]bool {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		c := inj.Conn(a).(*Conn)
		seen := make(map[uint64]bool, n)
		for range n {
			seen[c.next()] = true
		}
		return seen
	}
	first, second := draws(), draws()
	shared := 0
	for v := range second {
		if first[v] {
			shared++
		}
	}
	if shared != 0 {
		t.Fatalf("connections 1 and 2 share %d of their first %d draws", shared, n)
	}
}
