package main

// Acked-durability audit mode. `btload -audit FILE` drives a puts-only
// workload with unique keys and appends one "key value" line to FILE for
// every put the server ACKNOWLEDGED. The harness then kill -9s the
// server, restarts it (running recovery), and `btload -audit-verify
// FILE` replays the file as gets: every recorded key must be present
// with its recorded value, because an acknowledgment from a durable
// server is a promise the write survives a crash.
//
// Keys are disjoint across connections (key = keystart + seq*conns +
// connID) and across kill cycles (each cycle passes a fresh -keystart),
// so verification is exact: no same-key reordering across connections
// can change the final value. Values are derived from the
// key (val = key * auditValMul), so the file itself carries enough to
// verify without trusting btload's memory.
//
// In audit mode a dead connection is the expected outcome — the server
// was kill -9ed mid-run — so btload flushes the audit file and exits 0.

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/server"
	"btreeperf/internal/workload"
)

const auditValMul = 0x9E3779B97F4A7C15

func auditVal(key int64) uint64 { return uint64(key) * auditValMul }

// auditLog serializes acked-write records to the audit file.
type auditLog struct {
	mu sync.Mutex
	bw *bufio.Writer
	f  *os.File
	n  int64
}

func openAuditLog(path string) (*auditLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &auditLog{f: f, bw: bufio.NewWriter(f)}, nil
}

func (a *auditLog) record(key int64, val uint64) {
	a.mu.Lock()
	fmt.Fprintf(a.bw, "%d %d\n", key, val)
	a.n++
	a.mu.Unlock()
}

func (a *auditLog) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.bw.Flush(); err != nil {
		return err
	}
	return a.f.Close()
}

// runAudit drives conns pipelined put streams until duration elapses or
// the server goes away, recording every acked put. Exit status 0 covers
// both endings; only a local failure (cannot write the audit file) is an
// error.
func runAudit(dial func() (*server.Client, error), path string,
	conns, depth int, keystart int64, duration time.Duration) int {
	alog, err := openAuditLog(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btload:", err)
		return 1
	}

	var stop atomic.Bool
	time.AfterFunc(duration, func() { stop.Store(true) })
	var sent, acked, unacked atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(connID int) {
			defer wg.Done()
			a, u, s := auditConn(dial, alog, connID, conns, depth, keystart, &stop)
			acked.Add(a)
			unacked.Add(u)
			sent.Add(s)
		}(i)
	}
	wg.Wait()

	if err := alog.close(); err != nil {
		fmt.Fprintln(os.Stderr, "btload: audit file:", err)
		return 1
	}
	fmt.Printf("btload audit: %d puts sent, %d acked (recorded to %s), %d shed/unacked\n",
		sent.Load(), acked.Load(), path, unacked.Load())
	return 0
}

// auditConn runs one connection's put stream through a pipe, recording
// the acked puts. It ends at stop or on the first connection error (the
// kill); every put in flight then is unacknowledged — exactly the writes
// a kill is allowed to lose.
func auditConn(dial func() (*server.Client, error), alog *auditLog,
	connID, conns, depth int, keystart int64, stop *atomic.Bool) (acked, unacked, sent int64) {
	// The server may be mid-restart or behind a faulty listener; give the
	// dial a few tries before giving up on this cycle.
	var c *server.Client
	var err error
	for try := 0; try < 20 && !stop.Load(); try++ {
		if c, err = dial(); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if c == nil {
		return 0, 0, 0
	}
	defer c.Close()

	// The tallies belong to the pipe's receiver until finish returns.
	p := newPipe(c, depth, func(st stamp, resp server.Response) {
		// StatusOK and StatusMiss both mean the put applied AND its
		// batch's fsync returned: a durable ack. Busy/Overload/Unavail
		// mean the server refused it — not a promise, not recorded.
		if resp.Status == server.StatusOK || resp.Status == server.StatusMiss {
			alog.record(st.key, auditVal(st.key))
			acked++
		} else {
			unacked++
		}
	})
	for !stop.Load() {
		key := keystart + sent*int64(conns) + int64(connID)
		req := server.Request{Op: server.OpPut, Key: key, Val: auditVal(key)}
		if p.send(req, stamp{op: workload.Insert, key: key}) != nil {
			break
		}
		sent++
	}
	lost, _ := p.finish() // a dead connection is how an audit run is meant to end
	return acked, unacked + int64(lost), sent
}

// auditRec is one line of an audit file: an acked put.
type auditRec struct {
	key int64
	val uint64
}

// verifyTally is what a verification pass found.
type verifyTally struct{ checked, lost, wrong atomic.Int64 }

// verifyConn reads recs back through a pipe and returns how many of them
// went unread because the connection failed, and that failure.
func verifyConn(c *server.Client, recs []auditRec, depth int, t *verifyTally) (unread int, err error) {
	p := newPipe(c, depth, func(st stamp, resp server.Response) {
		t.checked.Add(1)
		switch {
		case resp.Status != server.StatusOK:
			t.lost.Add(1)
		case resp.Val != st.val:
			t.wrong.Add(1)
		}
	})
	sent := 0
	for _, r := range recs {
		if p.send(server.Request{Op: server.OpGet, Key: r.key}, stamp{op: workload.Search, key: r.key, val: r.val}) != nil {
			break
		}
		sent++
	}
	inFlight, err := p.finish()
	return len(recs) - sent + inFlight, err
}

// runVerify replays an audit file against a (recovered) server: every
// recorded key must be present with its recorded value. Exits non-zero
// on any lost or corrupted acked write — the harness's zero-loss budget.
func runVerify(dial func() (*server.Client, error), path string, conns, depth int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btload:", err)
		return 1
	}
	defer f.Close()
	var recs []auditRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r auditRec
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &r.key, &r.val); err != nil {
			fmt.Fprintf(os.Stderr, "btload: bad audit line %q: %v\n", sc.Text(), err)
			return 1
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "btload:", err)
		return 1
	}

	var t verifyTally
	var unread atomic.Int64
	var wg sync.WaitGroup
	per := (len(recs) + conns - 1) / conns
	for i := 0; i < conns && i*per < len(recs); i++ {
		part := recs[i*per : min(len(recs), (i+1)*per)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial()
			if err != nil {
				fmt.Fprintln(os.Stderr, "btload:", err)
				unread.Add(int64(len(part)))
				return
			}
			defer c.Close()
			if n, err := verifyConn(c, part, depth, &t); err != nil {
				fmt.Fprintln(os.Stderr, "btload: verify:", err)
				unread.Add(int64(n))
			}
		}()
	}
	wg.Wait()

	fmt.Printf("btload audit-verify: %d acked writes checked, %d lost, %d corrupted\n",
		t.checked.Load(), t.lost.Load(), t.wrong.Load())
	if n := unread.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "btload: verification incomplete: %d of %d acked writes were not read back\n", n, len(recs))
		return 1
	}
	if t.lost.Load() > 0 || t.wrong.Load() > 0 {
		return 1
	}
	return 0
}
