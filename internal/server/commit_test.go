package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
)

// The commit pipeline's contract, checked over the wire.

// isOplog reports whether a file was opened as a journal's oplog — or as
// the replacement a rotation (the one at open included) renames into its
// place, which keeps the name it was opened under.
func isOplog(name string) bool {
	return strings.HasSuffix(name, ".oplog") || strings.HasSuffix(name, ".oplog.tmp")
}

// gatedFS is a file layer whose oplog fsyncs a test can hold: every Sync
// of an oplog announces itself on entered and then waits for the gate.
type gatedFS struct {
	*pagestore.FailFS
	entered chan struct{}
	mu      sync.Mutex
	gate    chan struct{} // closed = open
}

func newGatedFS(plan pagestore.FailPlan) *gatedFS {
	g := &gatedFS{FailFS: pagestore.NewFailFS(nil, plan), entered: make(chan struct{}, 64)}
	g.gate = make(chan struct{})
	close(g.gate)
	g.AroundSync = func(name string, f pagestore.File) error {
		if isOplog(name) {
			g.mu.Lock()
			gate := g.gate
			g.mu.Unlock()
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-gate
		}
		return f.Sync()
	}
	return g
}

// hold makes every later oplog fsync wait until the returned release runs.
func (g *gatedFS) hold() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	for len(g.entered) > 0 { // forget the syncs that ran free
		<-g.entered
	}
	return func() { close(gate) }
}

// waitFor polls cond, failing the test if it never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// burst pipelines n puts of distinct keys from base on c and flushes: one
// batch at the server, n being small enough for one segment.
func burst(c *Client, base int64, n int) error {
	for i := 0; i < n; i++ {
		if err := c.Send(Request{Op: OpPut, Key: base + int64(i), Val: uint64(base) + uint64(i)}); err != nil {
			return err
		}
	}
	return c.Flush()
}

// mustBurst is burst on the test's own goroutine.
func mustBurst(t *testing.T, c *Client, base int64, n int) {
	t.Helper()
	if err := burst(c, base, n); err != nil {
		t.Fatal(err)
	}
}

// stampedConn is a server-side connection that notes, as each Write is
// entered, where in the response stream it ends and which oplog record the
// last returned fsync had covered by then.
type stampedConn struct {
	net.Conn
	covered *atomic.Int64
	mu      sync.Mutex
	end     int64
	writes  []writeStamp
}

type writeStamp struct{ end, covered int64 }

func (c *stampedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.end += int64(len(p))
	c.writes = append(c.writes, writeStamp{c.end, c.covered.Load()})
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// coveredAt returns what was covered when the write carrying response
// stream offset pos was entered.
func (c *stampedConn) coveredAt(pos int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		if w.end >= pos {
			return w.covered
		}
	}
	return -1
}

type stampingListener struct {
	net.Listener
	covered *atomic.Int64
	mu      sync.Mutex
	conns   map[string]*stampedConn // by the peer's address
}

func (l *stampingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stampedConn{Conn: c, covered: l.covered}
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = sc
	l.mu.Unlock()
	return sc, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.n += int64(n)
	return n, err
}

// TestNoAckBeforeCoveringFsync checks the ack contract where it is kept:
// on the wire. The file layer publishes, after each oplog fsync returns,
// the last record the file held when that fsync began; the server's side
// of every connection reads it as each response write is entered. Four
// pipelined connections write distinct keys, so the oplog afterwards gives
// every mutation its sequence — and each acknowledged one must have been
// covered before the write that carried its acknowledgement began.
func TestNoAckBeforeCoveringFsync(t *testing.T) {
	var covered atomic.Int64
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	fs.AroundSync = func(name string, f pagestore.File) error {
		if !isOplog(name) {
			return f.Sync()
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		// The journal serializes its fsyncs, so this store has no rival.
		if n := (st.Size() - journal.OplogHdrSize) / journal.OpRecSize; n > covered.Load() {
			covered.Store(n)
		}
		return nil
	}
	path := filepath.Join(t.TempDir(), "tree.db")
	// No checkpoints: the oplog is never rotated, so a record's position in
	// the file is its sequence for the whole run.
	eng := newDiskEngine(t, DiskEngineConfig{Path: path, Cap: 8, CacheNodes: 64, CheckpointOps: -1, FS: fs})
	s := New(Config{Engine: eng})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &stampingListener{Listener: inner, covered: &covered, conns: map[string]*stampedConn{}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	const conns, rounds, depth = 4, 30, 48
	type ack struct {
		key     int64
		covered int64 // at the write that carried the ack
	}
	acks := make([][]ack, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(inner.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetOpTimeout(20 * time.Second)
			cr := &countingReader{r: c.conn}
			c.br = bufio.NewReader(cr)
			var sc *stampedConn // the server's end of c
			for r := 0; r < rounds; r++ {
				base := int64(ci)<<32 | int64(r*depth)
				if err := burst(c, base, depth); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < depth; i++ {
					resp, err := c.Recv()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Status != StatusOK {
						t.Errorf("put %d answered status %d", base+int64(i), resp.Status)
						return
					}
					if sc == nil {
						// A response has arrived, so Accept has returned.
						ln.mu.Lock()
						sc = ln.conns[c.conn.LocalAddr().String()]
						ln.mu.Unlock()
					}
					acks[ci] = append(acks[ci], ack{base + int64(i), sc.coveredAt(cr.n - int64(c.br.Buffered()))})
				}
			}
		}(ci)
	}
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if t.Failed() {
		return
	}

	// Serve has returned, so every record is in the file; the engine is
	// still open, so no final checkpoint has rotated it away.
	raw, err := os.ReadFile(path + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	seqOf := map[int64]int64{}
	for i, op := range journal.DecodeOps(raw[journal.OplogHdrSize:]) {
		seqOf[op.Key] = int64(i) + 1
	}
	if len(seqOf) != conns*rounds*depth {
		t.Fatalf("oplog holds %d distinct keys, want %d", len(seqOf), conns*rounds*depth)
	}
	for ci := range acks {
		for _, a := range acks[ci] {
			if seq := seqOf[a.key]; a.covered < seq {
				t.Fatalf("conn %d: key %d (sequence %d) was acknowledged by a write entered when fsyncs had covered only %d",
					ci, a.key, seq, a.covered)
			}
		}
	}
	sh := s.shards[0]
	t.Logf("%d mutating batches in %d groups", sh.ctr[cCommitBatches].Load(), sh.ctr[cCommitGroups].Load())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWithQueuedCommits delivers SIGTERM while batches sit on the
// commit queue behind a committer held in its fsync: Serve must not
// return before the committer has gone through them, every one of them
// must be answered, and the engine must then close clean — a reopen
// replays nothing.
func TestDrainWithQueuedCommits(t *testing.T) {
	fs := newGatedFS(pagestore.FailPlan{})
	path := filepath.Join(t.TempDir(), "tree.db")
	eng := newDiskEngine(t, DiskEngineConfig{Path: path, Cap: 8, CacheNodes: 32, FS: fs})
	s := New(Config{Engine: eng})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	var cs [2]*Client
	for i := range cs {
		if cs[i], err = Dial(ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer cs[i].Close()
		cs[i].SetOpTimeout(10 * time.Second)
	}
	release := fs.hold()
	sh := s.shards[0]
	mustBurst(t, cs[0], 0, 4)
	<-fs.entered // the committer is in the first group's fsync
	mustBurst(t, cs[1], 100, 4)
	waitFor(t, "the second batch on the commit queue", func() bool { return len(sh.commitq) == 1 })
	mustBurst(t, cs[0], 200, 4)
	waitFor(t, "the third batch on the commit queue", func() bool { return len(sh.commitq) == 2 })

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) with batches still waiting for their commit", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for i, n := range []int{8, 4} {
		for ; n > 0; n-- {
			resp, err := cs[i].Recv()
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("conn %d: in-flight put lost across the drain: %+v err=%v", i, resp, err)
			}
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
	if got := sh.ctr[cCommitBatches].Load(); got != 3 {
		t.Fatalf("%d batches committed, want 3", got)
	}
	if got := sh.ctr[cCommitGroups].Load(); got != 2 {
		t.Fatalf("%d commit groups, want 2: the two queued batches share the second fsync", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after the drain: %v", err)
	}
	re := newDiskEngine(t, DiskEngineConfig{Path: path, Cap: 8, CacheNodes: 32})
	defer re.Close()
	if re.Recovered() != 0 {
		t.Fatalf("reopen replayed %d ops after a clean drain and close", re.Recovered())
	}
	if re.Len() != 12 {
		t.Fatalf("reopened Len = %d, want 12", re.Len())
	}
}
