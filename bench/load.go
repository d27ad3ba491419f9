package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"btreeperf/internal/server"
	"btreeperf/internal/workload"
)

var clockBase = time.Now()

// nowNs is a monotonic clock in nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// okey is the oracle's knowledge of one tracked key. A key's state is
// known only while no two mutations of it were in flight together: two
// batches of one connection may execute on two workers, so overlapping
// mutations of a key have no order the client can rely on.
type okey struct {
	val      uint64
	live     bool
	known    bool
	dirty    bool // mutations overlapped since the last quiet moment
	inflight int8
}

// tracked reports whether key carries an oracle entry: one key in 64,
// chosen by hash so the choice is independent of the traffic.
func tracked(key int64) bool {
	return uint64(key)*0x9E3779B97F4A7C15>>trackedShift == 0
}

type pendingOp struct {
	op  workload.Op
	key int64
	val uint64
}

// loadConn is one closed-loop caller: it encodes a burst of burstSize
// requests, flushes it, and reads every reply before encoding the next.
type loadConn struct {
	idx int
	sp  *spec
	c   *server.Client
	gen *workload.Generator

	seq    uint64 // ops generated so far; makes every put value unique
	pend   [burstSize]pendingOp
	oracle map[int64]okey

	hash uint64 // running hash of the requests sent while hashing is on

	// deadline, when non-zero, is the nowNs at which run gives up: a timed
	// phase that has drifted to maxTimedSeconds is aborted, not absorbed.
	deadline int64

	// done, when set, counts the ops of every connection as they complete;
	// sliceEnd, when set, is called as this connection finishes each of
	// its slices. measure samples the process through them.
	done     *atomic.Int64
	sliceEnd func()

	// Totals since the connection was opened.
	attempted int64
	failed    int64
	liveDelta int64 // puts answered OK minus dels answered OK
	scanPages int64
	scanKeys  int64
	badPages  int64
	firstBad  string

	// Totals of the current phase (reset by run).
	latNs   int64 // exact sum of op latencies
	total   hist  // whole-phase latency
	encNs   int64
	flushNs int64
	waitNs  int64
	drainNs int64
}

const hashPrime = 0x100000001b3

func (lc *loadConn) mix(x uint64) { lc.hash = (lc.hash ^ x) * hashPrime }

// request maps a generated op onto the wire. Connection c owns the keys
// whose low bit is c (prefill keys are dealt to the generators the same
// way), so two connections never touch the same key and each connection's
// oracle is authoritative for its keys.
func (lc *loadConn) request(op workload.Op, k int64) pendingOp {
	lc.seq++
	p := pendingOp{op: op, key: k&^1 | int64(lc.idx)}
	if op == workload.Insert {
		p.val = uint64(lc.idx)<<56 | lc.seq
	}
	return p
}

// wire is the request p goes on the wire as.
func (p pendingOp) wire(sp *spec) server.Request {
	switch p.op {
	case workload.Search:
		return server.Request{Op: server.OpGet, Key: p.key}
	case workload.Insert:
		return server.Request{Op: server.OpPut, Key: p.key, Val: p.val}
	case workload.Delete:
		return server.Request{Op: server.OpDel, Key: p.key}
	default:
		return server.Request{Op: server.OpScan, Key: p.key, Hi: p.key + scanSpan, Limit: sp.scanLimit}
	}
}

// sent notes a tracked mutation going on the wire.
func (lc *loadConn) sent(p pendingOp) {
	if p.op != workload.Insert && p.op != workload.Delete || !tracked(p.key) {
		return
	}
	e := lc.oracle[p.key]
	if e.inflight > 0 {
		e.dirty = true
	}
	e.inflight++
	lc.oracle[p.key] = e
}

// acked folds a reply into the oracle and the counters.
func (lc *loadConn) acked(p pendingOp, resp server.Response) {
	lc.attempted++
	if resp.Status != server.StatusOK && resp.Status != server.StatusMiss {
		// Busy, Overload, Unavail, Lagging, NotLeader, BadRequest: the
		// caller did not get its operation, whatever the reason.
		lc.failed++
	}
	switch p.op {
	case workload.Insert:
		if resp.Status == server.StatusOK {
			lc.liveDelta++
		}
	case workload.Delete:
		if resp.Status == server.StatusOK {
			lc.liveDelta--
		}
	case workload.Scan:
		lc.scanPages++
		lc.scanKeys += int64(len(resp.Entries))
		lc.checkPage(p, resp)
		return
	default:
		return
	}
	if !tracked(p.key) {
		return
	}
	e := lc.oracle[p.key]
	e.inflight--
	switch {
	case e.dirty:
		e.known = false
		if e.inflight == 0 {
			e.dirty = false
		}
	case resp.Status == server.StatusOK || resp.Status == server.StatusMiss:
		e.known = true
		e.live = p.op == workload.Insert
		e.val = p.val
	default:
		e.known = false // a refused mutation may or may not have applied
	}
	lc.oracle[p.key] = e
}

// checkPage checks one scan page: ascending, inside [lo, hi), at most
// limit entries.
func (lc *loadConn) checkPage(p pendingOp, resp server.Response) {
	bad := ""
	if len(resp.Entries) > lc.sp.scanLimit {
		bad = fmt.Sprintf("%d entries on a page of limit %d", len(resp.Entries), lc.sp.scanLimit)
	}
	prev := p.key - 1
	for _, e := range resp.Entries {
		if e.Key <= prev || e.Key-p.key >= scanSpan {
			bad = fmt.Sprintf("key %d out of order or outside [%d, %d+%d)", e.Key, p.key, p.key, int64(scanSpan))
			break
		}
		prev = e.Key
	}
	if bad != "" {
		lc.badPages++
		if lc.firstBad == "" {
			lc.firstBad = bad
		}
	}
}

// run drives bursts bursts. Burst b's latencies go to hists[b*len/bursts]
// (and to lc.total); with hashing on, every request is folded into
// lc.hash; with a non-nil tr, every burst leaves five spans.
//
// An op's latency runs from the start of its burst's flush to the moment
// its reply is decoded. Replies come back in request order, so within a
// burst latency grows with position: it is queueing time, and one series
// describes it whatever the op kind.
func (lc *loadConn) run(bursts int, hists []*hist, hashing bool, tr *connTrace) error {
	lc.latNs, lc.encNs, lc.flushNs, lc.waitNs, lc.drainNs = 0, 0, 0, 0, 0
	lc.total = hist{}
	for b := 0; b < bursts; b++ {
		h := hists[b*len(hists)/bursts]
		t0 := nowNs()
		if lc.deadline != 0 && t0 > lc.deadline {
			return fmt.Errorf("conn %d: %d of %d bursts done after %d s: the timed phase drifted too far from its calibration",
				lc.idx, b, bursts, maxTimedSeconds)
		}
		for i := 0; i < burstSize; i++ {
			op, k := lc.gen.Next()
			p := lc.request(op, k)
			req := p.wire(lc.sp)
			lc.pend[i] = p
			if hashing {
				lc.mix(uint64(req.Op))
				lc.mix(uint64(req.Key))
				lc.mix(req.Val)
			}
			if err := lc.c.Send(req); err != nil {
				return lc.lost(i, err)
			}
			lc.sent(p)
		}
		t1 := nowNs()
		if err := lc.c.Flush(); err != nil {
			return lc.lost(burstSize, err)
		}
		t2 := nowNs()
		t3 := t2
		for i := 0; i < burstSize; i++ {
			p := lc.pend[i]
			var resp server.Response
			var err error
			if p.op == workload.Scan {
				resp, err = lc.c.RecvPage()
			} else {
				resp, err = lc.c.Recv()
			}
			if err != nil {
				return lc.lost(burstSize-i, err)
			}
			t := nowNs()
			if i == 0 {
				t3 = t
			}
			lat := t - t1
			lc.latNs += lat
			h.record(lat)
			lc.total.record(lat)
			lc.acked(p, resp)
		}
		t4 := nowNs()
		lc.encNs += t1 - t0
		lc.flushNs += t2 - t1
		lc.waitNs += t3 - t2
		lc.drainNs += t4 - t3
		if tr != nil {
			tr.burst(t0, t1, t2, t3, t4)
		}
		if lc.done != nil {
			lc.done.Add(burstSize)
		}
		if lc.sliceEnd != nil && (b+1)*len(hists)/bursts != b*len(hists)/bursts {
			lc.sliceEnd()
		}
	}
	return nil
}

// lost counts the requests a dead connection left unanswered as failed.
func (lc *loadConn) lost(n int, err error) error {
	lc.attempted += int64(n)
	lc.failed += int64(n)
	return fmt.Errorf("conn %d: %w", lc.idx, err)
}
