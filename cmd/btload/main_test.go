package main

// Regression tests for tolerant-mode error accounting: when a connection
// dies mid-stream, every sent-but-unanswered request must be counted as
// lost exactly once, and a request whose Send failed must not be counted
// at all. The fake servers below answer a fixed number of requests and
// then kill the connection abruptly (RST via SO_LINGER 0), the same
// failure shape a kill -9 or chaos reset produces.

import (
	"bufio"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/server"
	"btreeperf/internal/workload"
	"btreeperf/internal/xrand"
)

// rstServer accepts one connection, answers exactly answerN requests,
// then resets the connection. Returning 0 for answerN resets on the
// first read.
func rstServer(t *testing.T, answerN int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.SetLinger(0) // close sends RST: in-flight data is torn down
				}
				br := bufio.NewReader(conn)
				buf := make([]byte, server.MaxPayload)
				out := make([]byte, 0, 16)
				for i := 0; i < answerN; i++ {
					if _, err := server.ReadRequest(br, buf); err != nil {
						return
					}
					out = server.AppendResponse(out[:0], server.Response{Status: server.StatusOK})
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
				// Drain whatever is queued without answering, briefly, so
				// the client's sends succeed before the reset.
				conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				for {
					if _, err := server.ReadRequest(br, buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func testGen(t *testing.T) *workload.Generator {
	t.Helper()
	gen, err := workload.NewGenerator(workload.PaperMix, workload.NewKeyPool(), 1<<20, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func testDial(addr string) (*server.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(conn)
	c.SetOpTimeout(2 * time.Second)
	return c, nil
}

func testSlot(t *testing.T, addr string, stop *atomic.Bool, ctr *counters) *slot {
	return &slot{
		dial: testDial, addr: addr, gen: testGen(t), depth: 16,
		pace: xrand.New(2), stop: stop, ctr: ctr,
	}
}

// TestPumpAccountingOnConnLoss kills the connection after k answered
// requests and checks that every mode's books balance: answered + lost
// == sent, with the loss reported to the caller. All four modes run
// their connections through pipe, whose send-before-stamp order makes
// the invariant structural: a stamp can only exist for a request Send
// accepted, so a failed Send can never leave a phantom stamp for the
// receiver to count as a lost in-flight op. Per mode: load and replica
// mode book every answer once, in the slot's one latency histogram (in
// replica mode both receivers record into it), replica
// mode charges the follower no more than was lost in all, audit mode
// records exactly the acked puts, and verify mode returns the number
// of records a dead connection left unread.
func TestPumpAccountingOnConnLoss(t *testing.T) {
	modes := []struct {
		name string
		// run drives one connection (two in replica mode) against servers
		// that reset after answerN requests each.
		run func(t *testing.T, answerN int) (sent, answered, lost int64)
	}{
		{"load", func(t *testing.T, answerN int) (int64, int64, int64) {
			var ctr counters
			var stop atomic.Bool
			s := testSlot(t, rstServer(t, answerN), &stop, &ctr)
			did, lost, err := s.dialAndPump(0)
			if err == nil {
				t.Errorf("answerN=%d: no error against a resetting server", answerN)
			}
			return int64(did), s.lat.Snapshot().N(), int64(lost)
		}},
		{"replica", func(t *testing.T, answerN int) (int64, int64, int64) {
			var ctr counters
			var stop atomic.Bool
			s := testSlot(t, rstServer(t, answerN), &stop, &ctr)
			s.rt = &replTargets{
				floors: make(server.ReadFloor, 1), addrs: []string{rstServer(t, answerN)},
				gets: make([]atomic.Int64, 1), scans: make([]atomic.Int64, 1),
				lagging: make([]atomic.Int64, 1), errsT: make([]atomic.Int64, 1),
			}
			did, lost, err := s.dialAndPump(0)
			if e := s.rt.errsT[0].Load(); e > int64(lost) {
				t.Errorf("follower charged %d lost reads of %d lost in all", e, lost)
			}
			if err == nil {
				t.Errorf("answerN=%d: no error against a resetting server", answerN)
			}
			return int64(did), s.lat.Snapshot().N(), int64(lost)
		}},
		{"audit", func(t *testing.T, answerN int) (int64, int64, int64) {
			alog, err := openAuditLog(filepath.Join(t.TempDir(), "audit.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer alog.close()
			var stop atomic.Bool
			addr := rstServer(t, answerN)
			acked, unacked, sent := auditConn(func() (*server.Client, error) { return testDial(addr) },
				alog, 0, 1, 16, 0, &stop)
			if acked != alog.n {
				t.Errorf("%d acked, %d recorded", acked, alog.n)
			}
			// The fake server refuses nothing, so unacked is what was in
			// flight when the connection died.
			return sent, acked, unacked
		}},
		{"verify", func(t *testing.T, answerN int) (int64, int64, int64) {
			c, err := testDial(rstServer(t, answerN))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			recs := make([]auditRec, 200)
			for i := range recs {
				recs[i] = auditRec{key: int64(i)} // the fake server answers OK with value 0
			}
			var tally verifyTally
			unread, err := verifyConn(c, recs, 16, &tally)
			if tally.lost.Load() != 0 || tally.wrong.Load() != 0 {
				t.Errorf("%d lost, %d wrong among answered reads", tally.lost.Load(), tally.wrong.Load())
			}
			if err == nil {
				t.Errorf("answerN=%d: no error against a resetting server", answerN)
			}
			return int64(len(recs)), tally.checked.Load(), int64(unread)
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, answerN := range []int{0, 1, 7, 40} {
				sent, answered, lost := m.run(t, answerN)
				if sent != answered+lost {
					t.Errorf("answerN=%d: sent %d, answered %d, lost %d: %d ops unaccounted (double- or phantom-counted)",
						answerN, sent, answered, lost, sent-answered-lost)
				}
				if lost <= 0 || lost > sent {
					t.Errorf("answerN=%d: lost %d of %d sent on a connection that died mid-stream", answerN, lost, sent)
				}
			}
		})
	}
}

// TestRunConnTolerantErrorBudget runs the full tolerant redial loop
// against a server that answers a few ops then resets, every cycle. The
// error budget must never exceed what was actually sent, and the
// answers in the slot's latency histogram plus errs must equal sent
// exactly — the invariant the chaos harness's <1% client-error budget is
// measured against.
func TestRunConnTolerantErrorBudget(t *testing.T) {
	var ctr counters
	var stop atomic.Bool
	s := testSlot(t, rstServer(t, 25), &stop, &ctr)
	s.tolerant = true
	time.AfterFunc(600*time.Millisecond, func() { stop.Store(true) })
	if err := s.run(); err != nil {
		t.Fatalf("tolerant run returned error: %v", err)
	}

	sent, recvd, errs := ctr.sent.Load(), s.lat.Snapshot().N(), ctr.errs.Load()
	if ctr.redials.Load() == 0 {
		t.Fatal("no redials: the fake server never reset the connection")
	}
	if recvd+errs != sent {
		t.Errorf("sent %d, recvd %d, errs %d: books off by %d (a lost op counted twice, or a phantom)",
			sent, recvd, errs, sent-recvd-errs)
	}
	if errs > sent {
		t.Errorf("errs %d > sent %d: error budget charged for unsent requests", errs, sent)
	}
}
