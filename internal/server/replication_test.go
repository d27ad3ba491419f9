package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/pagestore"
	"btreeperf/internal/repl"
	"btreeperf/internal/xrand"
)

// diskEngines builds one disk engine per shard under dir.
func diskEngines(t testing.TB, dir string, shards int) []Engine {
	t.Helper()
	engines := make([]Engine, shards)
	for i := 0; i < shards; i++ {
		sd := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			t.Fatal(err)
		}
		e, err := NewDiskEngine(DiskEngineConfig{
			Path:          filepath.Join(sd, "tree.db"),
			CheckpointOps: 256, // small: checkpoints (and log truncation) happen under test load
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// leaderHarness is a serving leader with a live replication hub.
type leaderHarness struct {
	s        *Server
	addr     string // serving listener
	replAddr string // replication listener
	shutdown func()
}

// startLeader runs a disk-backed leader with a replication hub on
// ephemeral ports.
func startLeader(t testing.TB, shards int, cfg Config) *leaderHarness {
	t.Helper()
	if cfg.Engines == nil {
		cfg.Engines = diskEngines(t, t.TempDir(), shards)
	}
	s, addr, stop := startServer(t, cfg)
	if err := s.StartRepl(ReplOptions{Listen: "127.0.0.1:0", RetainBytes: 4 << 20, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	return &leaderHarness{
		s:        s,
		addr:     addr,
		replAddr: s.repl.ln.Addr().String(),
		shutdown: func() {
			stop()
			s.Close()
		},
	}
}

// followerHarness is a serving follower streaming from a leader.
type followerHarness struct {
	s        *Server
	addr     string
	shutdown func()
}

// startFollower runs a follower server (mem by default; pass Engines in
// cfg for disk) in the role opt describes; opt.Follow is the leader's
// replication listener.
func startFollower(t testing.TB, cfg Config, opt ReplOptions) *followerHarness {
	t.Helper()
	s, addr, stop := startServer(t, cfg)
	opt.Logf = t.Logf
	if err := s.StartRepl(opt); err != nil {
		t.Fatal(err)
	}
	return &followerHarness{
		s:    s,
		addr: addr,
		shutdown: func() {
			stop()
			s.Close()
		},
	}
}

// waitSeqs polls until want(seqs) holds for the address's seqs probe.
func waitSeqs(t testing.TB, addr string, want func([]int64) bool) []int64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last []int64
	for time.Now().Before(deadline) {
		c, err := Dial(addr)
		if err == nil {
			seqs, err := c.Seqs()
			c.Close()
			if err == nil {
				last = seqs
				if want(seqs) {
					return seqs
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("seqs never converged; last=%v", last)
	return nil
}

// scanAll drains the full keyspace of addr into a map.
func scanAll(t testing.TB, addr string) map[int64]uint64 {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make(map[int64]uint64)
	if err := c.ScanAll(math.MinInt64, math.MaxInt64, 512, func(k int64, v uint64) {
		out[k] = v
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicationFollowerEquivalence drives concurrent writers at a
// disk leader while a follower streams the oplog over real TCP, then
// checks the follower's full contents equal the leader's — across
// follower engine kinds and shard counts, and with the follower
// connecting late enough that catch-up (from retained segments or via
// snapshot resync) is exercised, not just steady-state tailing.
func TestReplicationFollowerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replication equivalence is a multi-process-shaped test")
	}
	for _, tc := range []struct {
		name   string
		shards int
		mem    bool
	}{
		{"disk-1shard", 1, false},
		{"disk-4shard", 4, false},
		{"mem-1shard", 1, true},
		{"mem-4shard", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld := startLeader(t, tc.shards, Config{})
			defer ld.shutdown()

			// Phase 1: write before the follower exists, so it must
			// catch up from history rather than tail from zero lag.
			const writers, opsPerWriter = 4, 300
			load := func(base int64) {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						c, err := Dial(ld.addr)
						if err != nil {
							t.Error(err)
							return
						}
						defer c.Close()
						for i := 0; i < opsPerWriter; i++ {
							k := base + int64(w*opsPerWriter+i)
							if _, err := c.Put(k, uint64(k)*3+1); err != nil {
								t.Error(err)
								return
							}
							if i%5 == 0 { // deletions replicate too
								if _, err := c.Del(base + int64(w*opsPerWriter+i/2)); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
			}
			load(0)

			fcfg := Config{Shards: tc.shards}
			if !tc.mem {
				fcfg = Config{Engines: diskEngines(t, t.TempDir(), tc.shards)}
			}
			fl := startFollower(t, fcfg, ReplOptions{Follow: ld.replAddr})
			defer fl.shutdown()

			// Phase 2: keep writing while the follower streams.
			load(1 << 20)

			leaderSeqs := waitSeqs(t, ld.addr, func([]int64) bool { return true })
			waitSeqs(t, fl.addr, func(seqs []int64) bool {
				for i := range seqs {
					if seqs[i] < leaderSeqs[i] {
						return false
					}
				}
				return true
			})

			want := scanAll(t, ld.addr)
			got := scanAll(t, fl.addr)
			if len(got) != len(want) {
				t.Fatalf("follower has %d keys, leader %d", len(got), len(want))
			}
			for k, v := range want {
				if gv, ok := got[k]; !ok || gv != v {
					t.Fatalf("key %d: follower %d (present=%v), leader %d", k, gv, ok, v)
				}
			}
		})
	}
}

// fakeFollower is a FollowerSource with fixed applied seqs, for testing
// the serving layer's role handling without a live stream.
type fakeFollower struct{ seqs []int64 }

func (f fakeFollower) AppliedSeq(shard int) int64 { return f.seqs[shard] }
func (f fakeFollower) Stats() repl.ApplierStats {
	return repl.ApplierStats{Applied: f.seqs}
}

// TestFollowerRefusals pins the follower serving contract: mutations
// answer StatusNotLeader, a bounded-staleness get past the applied seq
// answers StatusLagging (never stale data), and one at or below it is
// served.
func TestFollowerRefusals(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{})
	defer shutdown()
	src := FollowerSource(fakeFollower{seqs: []int64{100}})
	s.repl.follower.Store(&src)
	s.shards[0].eng.Put(7, 77)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.Do(Request{Op: OpPut, Key: 1, Val: 2}); err != nil || resp.Status != StatusNotLeader {
		t.Fatalf("put on follower: %+v err=%v, want StatusNotLeader", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpDel, Key: 1}); err != nil || resp.Status != StatusNotLeader {
		t.Fatalf("del on follower: %+v err=%v, want StatusNotLeader", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpGetSeq, Key: 7, MinSeq: 101}); err != nil || resp.Status != StatusLagging {
		t.Fatalf("getseq past applied: %+v err=%v, want StatusLagging", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpGetSeq, Key: 7, MinSeq: 100}); err != nil || resp.Status != StatusOK || resp.Val != 77 {
		t.Fatalf("getseq at applied: %+v err=%v, want OK 77", resp, err)
	}
	if resp, err := c.Do(Request{Op: OpGetSeq, Key: 99}); err != nil || resp.Status != StatusMiss {
		t.Fatalf("getseq miss: %+v err=%v, want StatusMiss", resp, err)
	}
	// Seqs reports the follower's applied positions.
	seqs, err := c.Seqs()
	if err != nil || len(seqs) != 1 || seqs[0] != 100 {
		t.Fatalf("seqs: %v err=%v, want [100]", seqs, err)
	}

	// Detach: the same server serves mutations again.
	s.repl.follower.Store(nil)
	if fresh, err := c.Put(1, 2); err != nil || !fresh {
		t.Fatalf("put after detach: fresh=%v err=%v", fresh, err)
	}
}

// TestLeaderAckStamping pins the repl-leader ack contract: once a hub is
// attached, acknowledged mutations carry the shard's durable sequence in
// the value field, and the sequence is monotone.
func TestLeaderAckStamping(t *testing.T) {
	ld := startLeader(t, 1, Config{})
	defer ld.shutdown()

	c, err := Dial(ld.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var prev uint64
	for i := int64(0); i < 10; i++ {
		resp, err := c.Do(Request{Op: OpPut, Key: i, Val: uint64(i)})
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %+v err=%v", i, resp, err)
		}
		if !resp.HasVal || resp.Val == 0 {
			t.Fatalf("put %d: response not stamped with durable seq: %+v", i, resp)
		}
		if resp.Val < prev {
			t.Fatalf("put %d: seq regressed %d -> %d", i, prev, resp.Val)
		}
		prev = resp.Val
	}
	// Deleting an absent key is a Miss — stamped all the same (the del
	// was journaled and committed).
	resp, err := c.Do(Request{Op: OpDel, Key: 1 << 40})
	if err != nil || resp.Status != StatusMiss || !resp.HasVal {
		t.Fatalf("absent del: %+v err=%v, want stamped Miss", resp, err)
	}
}

// TestSemiSyncAckBarrier pins ReplAcks: with no follower connected, a
// mutation misses the barrier and answers StatusBusy (durable locally,
// redundancy unconfirmed); once a follower streams, mutations ack.
func TestSemiSyncAckBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{ReplAcks: 1, ReplAckTimeout: 150 * time.Millisecond})
	defer ld.shutdown()

	c, err := Dial(ld.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(Request{Op: OpPut, Key: 1, Val: 1})
	if err != nil || resp.Status != StatusBusy {
		t.Fatalf("put without follower: %+v err=%v, want StatusBusy", resp, err)
	}
	if got := ld.s.shards[0].ctr[cAckTimeouts].Load(); got == 0 {
		t.Fatal("ack timeout not counted")
	}
	// The write IS durable despite the Busy answer.
	if v, ok, err := c.Get(1); err != nil || !ok || v != 1 {
		t.Fatalf("unacked write not readable: v=%d ok=%v err=%v", v, ok, err)
	}

	fl := startFollower(t, Config{Shards: 1}, ReplOptions{Follow: ld.replAddr})
	defer fl.shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = c.Do(Request{Op: OpPut, Key: 2, Val: 2})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusOK {
			if !resp.HasVal {
				t.Fatalf("acked put not stamped: %+v", resp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("semi-sync put never acked; last %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSemiSyncWaitOverlapsNextFsync pins where the follower-ack barrier
// stands in the commit pipeline: behind the committer, not inside it. A
// leader has a single follower that is held before its first apply; while
// the first put waits for that follower's ack, a second put pipelined on
// the same connection must still reach its own fsync. With the wait inside
// the fsync loop (or inside the connection that applied the first put) the
// second group could not become durable until the first one's wait was
// over.
func TestSemiSyncWaitOverlapsNextFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{ReplAcks: 1, ReplAckTimeout: 20 * time.Second})
	defer ld.shutdown()

	gate := make(chan struct{})
	var open sync.Once
	held := gatedEngine{DiskEngine: diskEngines(t, t.TempDir(), 1)[0].(*DiskEngine), gate: gate}
	fl := startFollower(t, Config{Engine: held}, ReplOptions{Follow: ld.replAddr})
	defer func() {
		open.Do(func() { close(gate) })
		fl.shutdown()
	}()
	waitFor(t, "the follower to register", func() bool {
		f := ld.s.repl.hub.Load().Stats().Followers
		return len(f) == 1 && f[0].Connected
	})

	eng := ld.s.shards[0].eng.(*DiskEngine)
	base := eng.DurableSeq()
	c := dialT(t, ld.addr)
	put := func(key int64) {
		if err := c.Send(Request{Op: OpPut, Key: key, Val: uint64(key)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	resps := make(chan Response, 2)
	go func() {
		for i := 0; i < 2; i++ {
			resp, err := c.Recv()
			if err != nil {
				t.Errorf("put %d: %v", i+1, err)
			}
			resps <- resp
		}
	}()
	put(1)
	waitFor(t, "the first put's fsync", func() bool { return eng.DurableSeq() == base+1 })
	put(2)
	waitFor(t, "the second put's fsync while the first still waits for its follower", func() bool {
		return eng.DurableSeq() == base+2
	})
	select {
	case resp := <-resps:
		t.Fatalf("first put answered %+v before any follower had acked it", resp)
	default:
	}
	open.Do(func() { close(gate) })
	for i := 0; i < 2; i++ {
		resp := <-resps
		if resp.Status != StatusOK || !resp.HasVal || int64(resp.Val) < base+int64(i)+1 {
			t.Fatalf("put %d after the follower caught up: %+v, want OK stamped at or past sequence %d", i+1, resp, base+int64(i)+1)
		}
	}
	if got := ld.s.shards[0].ctr[cAckTimeouts].Load(); got != 0 {
		t.Fatalf("%d ack timeouts with a follower that did ack", got)
	}
}

// TestReadFloorContract checks the read-floor contract (OpGetSeq in
// protocol.go) over a real disk leader and follower: a get carrying the
// client's ReadFloor for its key answers StatusLagging, never a missing key
// or the value the key held before an acked put, for as long as the
// follower has not applied that put, and the new value once it has. The
// follower's engines let through exactly the applies the test allows, so
// "not yet applied" is certain, not timed. Shard 0 takes ten times shard
// 1's writes, so the two shards' floors straddle the follower's position:
// a floor read from the other shard's slot would let it serve stale
// values. The last phase holds the follower inside a snapshot resync,
// after Reset has emptied shard 0: its position there must read 0, or a
// floor it had already passed would be served from the emptied shard.
func TestReadFloorContract(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 2, Config{})
	defer ld.shutdown()

	var keys [2][]int64 // twenty keys per shard
	for k := int64(0); len(keys[0]) < 20 || len(keys[1]) < 20; k++ {
		if i := shardIndex(k, 2); len(keys[i]) < 20 {
			keys[i] = append(keys[i], k)
		}
	}
	lc := dialT(t, ld.addr)
	seqs, err := lc.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	floor := make(ReadFloor, len(seqs))
	acked := make(map[int64]uint64) // each key's last acked value
	put := func(k int64, round int) {
		t.Helper()
		v := uint64(k)<<8 | uint64(round)
		resp, err := lc.Do(Request{Op: OpPut, Key: k, Val: v})
		if err != nil || (resp.Status != StatusOK && resp.Status != StatusMiss) || !resp.HasVal {
			t.Fatalf("put %d: %+v err=%v, want a stamped ack", k, resp, err)
		}
		floor.Observe(k, int64(resp.Val))
		acked[k] = v
	}

	// follow starts the follower on the disk engines in dir behind one gate
	// that lets through the given number of applies; open opens it for good.
	dir, state := t.TempDir(), filepath.Join(t.TempDir(), "state.json")
	var fl *followerHarness
	var fc *Client
	follow := func(applies int) (open func()) {
		gate := make(chan struct{}, applies)
		for i := 0; i < applies; i++ {
			gate <- struct{}{}
		}
		var once sync.Once
		engs := diskEngines(t, dir, 2)
		fl = startFollower(t, Config{Engines: []Engine{
			gatedEngine{DiskEngine: engs[0].(*DiskEngine), gate: gate},
			gatedEngine{DiskEngine: engs[1].(*DiskEngine), gate: gate},
		}}, ReplOptions{Follow: ld.replAddr, StatePath: state})
		fc = dialT(t, fl.addr)
		return func() { once.Do(func() { close(gate) }) }
	}
	getSeq := func(k int64) Response {
		t.Helper()
		resp, err := fc.Do(Request{Op: OpGetSeq, Key: k, MinSeq: floor.For(k)})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	caughtUp := func() {
		t.Helper()
		head := waitSeqs(t, ld.addr, func([]int64) bool { return true })
		waitSeqs(t, fl.addr, func(s []int64) bool { return s[0] >= head[0] && s[1] >= head[1] })
	}
	expectAcked := func(when string) {
		t.Helper()
		for i, ks := range keys {
			for _, k := range ks {
				if resp := getSeq(k); resp.Status != StatusOK || resp.Val != acked[k] {
					t.Fatalf("%s: getseq %d (shard %d, floor %d) = %s %#x, want OK %#x",
						when, k, i, floor.For(k), StatusName(resp.Status), resp.Val, acked[k])
				}
			}
		}
	}

	// One write per shard before the follower joins, and the join finished
	// before any other: whether the follower takes those two from a
	// snapshot or the log, they are exactly two applies.
	const rounds = 10 // shard 0's writes per key before the hold; shard 1's is 1
	put(keys[0][0], 0)
	put(keys[1][0], 0)
	open := follow(2 + rounds*len(keys[0]) + len(keys[1]))
	defer func() {
		open()
		fl.shutdown()
	}()
	caughtUp()
	for r := 0; r < rounds; r++ {
		for _, k := range keys[0] {
			put(k, r)
		}
	}
	for _, k := range keys[1] {
		put(k, 0)
	}
	caughtUp()
	expectAcked("caught up")

	// The hold: every key gets a new value the leader acks and the
	// follower cannot apply.
	for _, ks := range keys {
		for _, k := range ks {
			put(k, rounds)
		}
	}
	for i, ks := range keys {
		for _, k := range ks {
			switch resp := getSeq(k); {
			case resp.Status == StatusOK:
				t.Fatalf("held follower served key %d (shard %d) at floor %d: %#x, the value from before its acked put",
					k, i, floor.For(k), resp.Val)
			case resp.Status != StatusLagging:
				t.Fatalf("held follower answered key %d %s, want lagging", k, StatusName(resp.Status))
			}
		}
	}
	open()
	caughtUp()
	expectAcked("after the hold")

	// The resync: the follower stops, another writer moves the leader's
	// log past the follower's saved position (a one-byte retention budget
	// evicts what its registration holds), and the follower restarts with
	// no applies allowed. The client's floor is unchanged and below the
	// follower's old position.
	open()
	fl.shutdown()
	pos := readState(t, state).Seqs
	hub := ld.s.repl.hub.Load()
	for i, sh := range ld.s.shards {
		i := i
		sh.eng.(*DiskEngine).Journal().SetRetention(func() int64 { return hub.RetentionFloor(i) }, 1)
	}
	wc, next := dialT(t, ld.addr), int64(1<<20)
	waitFor(t, "the leader's log to move past the follower's position", func() bool {
		for i := 0; i < 64; i++ {
			if _, err := wc.Put(next, 1); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i, sh := range ld.s.shards {
			if sh.eng.(*DiskEngine).Journal().LowestSeq() <= pos[i] {
				return false
			}
		}
		return true
	})
	open = follow(0)
	waitFor(t, "the follower to empty shard 0 for its snapshot", func() bool {
		for _, k := range keys[0] {
			if _, ok, err := fc.Get(k); err != nil || ok {
				return false
			}
		}
		return true
	})
	for i, ks := range keys {
		for _, k := range ks {
			resp := getSeq(k)
			if resp.Status == StatusLagging || (i == 1 && resp.Status == StatusOK && resp.Val == acked[k]) {
				continue // shard 1 still waits for its snapshot, data and position intact
			}
			t.Fatalf("follower resyncing shard 0 answered key %d (shard %d) at floor %d: %s %#x, want lagging",
				k, i, floor.For(k), StatusName(resp.Status), resp.Val)
		}
	}
	open()
	caughtUp()
	expectAcked("after the resync")
}

// TestFollowerIndexMatchesLeader checks the secondary index's contract on
// a follower (OpLookup in protocol.go): with Index on both ends, Lookup on
// the follower answers what Lookup on the leader answers, page by page and
// token by token, at each quiescent point — after streaming the leader's
// oplog, and again after a forced snapshot resync (Reset, then the
// snapshot's pages through Apply) of the same disk follower.
func TestFollowerIndexMatchesLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ld := startLeader(t, shards, Config{Index: true})
			defer ld.shutdown()
			lc := dialT(t, ld.addr)
			rng := xrand.New(uint64(shards))
			// write pipelines n writes over 300 keys per shard: puts of one
			// of 16 values, and every tenth or so a del.
			write := func(n int) {
				t.Helper()
				for sent := 0; sent < n; sent += 64 {
					for i := 0; i < 64; i++ {
						req := Request{Op: OpPut, Key: int64(rng.IntN(300 * shards)), Val: uint64(rng.IntN(16))}
						if rng.IntN(10) == 0 {
							req = Request{Op: OpDel, Key: req.Key}
						}
						if err := lc.Send(req); err != nil {
							t.Fatal(err)
						}
					}
					if err := lc.Flush(); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 64; i++ {
						if resp, err := lc.Recv(); err != nil || resp.Status > StatusMiss {
							t.Fatalf("write: %+v err=%v", resp, err)
						}
					}
				}
			}
			dir, state := t.TempDir(), filepath.Join(t.TempDir(), "state.json")
			follow := func(resync bool) *followerHarness {
				return startFollower(t, Config{Engines: diskEngines(t, dir, shards), Index: true},
					ReplOptions{Follow: ld.replAddr, StatePath: state, Resync: resync})
			}
			caughtUp := func(fl *followerHarness) {
				head := waitSeqs(t, ld.addr, func([]int64) bool { return true })
				waitSeqs(t, fl.addr, func(s []int64) bool {
					for i := range s {
						if s[i] < head[i] {
							return false
						}
					}
					return true
				})
			}
			snapshots := func() int64 { return ld.s.repl.hub.Load().Stats().Snapshots }

			// Streaming: the follower joins an empty leader by one snapshot
			// per shard and applies every later write from the stream,
			// while every leader shard checkpoints at least once.
			fl := follow(false)
			write(700 * shards)
			waitFor(t, "a checkpoint on every leader shard", func() bool {
				for _, sh := range ld.s.shards {
					if sh.eng.Stats().Checkpoints == 0 {
						return false
					}
				}
				return true
			})
			caughtUp(fl)
			if n := snapshots(); n != int64(shards) {
				t.Fatalf("%d snapshots while streaming, want one per shard (%d) to join", n, shards)
			}
			sameLookups(t, ld.addr, fl.addr)
			fl.shutdown()

			// Resync: a follower that forgets its position claims nothing, so
			// it takes every shard from a snapshot again.
			write(700 * shards)
			fl = follow(true)
			defer fl.shutdown()
			caughtUp(fl)
			if n := snapshots(); n != 2*int64(shards) {
				t.Fatalf("%d snapshots after the resync, want one more per shard (%d)", n, 2*shards)
			}
			sameLookups(t, ld.addr, fl.addr)
		})
	}
}

// sameLookups fails unless every value's Lookup pages, three keys at a
// time, are identical on both servers — keys and continuation tokens —
// and the pages hold at least one key between them.
func sameLookups(t *testing.T, leader, follower string) {
	t.Helper()
	lc, fc := dialT(t, leader), dialT(t, follower)
	total := 0
	for v := uint64(0); v < 16; v++ {
		var token []byte
		for page := 0; ; page++ {
			want, wantNext, err := lc.Lookup(v, 3, token)
			if err != nil {
				t.Fatal(err)
			}
			got, gotNext, err := fc.Lookup(v, 3, token)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !bytes.Equal(gotNext, wantNext) {
				t.Fatalf("lookup %d page %d: follower %v (token %x), leader %v (token %x)", v, page, got, gotNext, want, wantNext)
			}
			total += len(want)
			if wantNext == nil {
				break
			}
			token = wantNext
		}
	}
	if total == 0 {
		t.Fatal("no value is indexed on the leader; the comparison proves nothing")
	}
}

// gatedEngine is a disk engine whose Put waits for the gate: a follower
// built on one has its applier stuck inside an apply for as long as the
// test likes. entered, if set, hears of every Put that reached the gate.
type gatedEngine struct {
	*DiskEngine
	gate    <-chan struct{}
	entered chan<- struct{}
}

func (e gatedEngine) Put(key int64, val uint64) (bool, error) {
	if e.entered != nil {
		e.entered <- struct{}{}
	}
	<-e.gate
	return e.DiskEngine.Put(key, val)
}

// readState decodes the replication state file the way a restart would.
func readState(t *testing.T, path string) repl.State {
	t.Helper()
	st, err := repl.LoadState(nil, path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPromoteFlipsRoles drives the real promotion (Server.Promote, the one
// the /promote handler calls) under semi-sync replication and holds it to
// the failover contract: every put the old leader answered OK is readable
// on the promoted node, and no sequence the old leader stamped onto an ack
// exceeds the promoted node's durable sequence. The leader is killed in
// the middle of the load, so some puts are cut off unanswered; those may
// or may not have made it, and are not checked. The state file ends up
// recording the lineage now led, not the position applied before.
func TestPromoteFlipsRoles(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{ReplAcks: 1, ReplAckTimeout: 5 * time.Second})
	// The follower must be disk-backed to lead after promotion.
	statePath := filepath.Join(t.TempDir(), "state.json")
	fl := startFollower(t, Config{Engines: diskEngines(t, t.TempDir(), 1)},
		ReplOptions{Follow: ld.replAddr, Listen: "127.0.0.1:0", RetainBytes: 4 << 20, StatePath: statePath})
	stopped := false
	defer func() {
		if !stopped {
			fl.shutdown()
		}
	}()
	waitFor(t, "the follower to register", func() bool {
		f := ld.s.repl.hub.Load().Stats().Followers
		return len(f) == 1 && f[0].Connected
	})
	oldEpoch := ld.s.repl.hub.Load().Epoch()

	// Four writers put distinct keys until the leader dies under them.
	type acked struct {
		key int64
		seq uint64
	}
	const writers = 4
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		oks    []acked
		enough = make(chan struct{})
		once   sync.Once
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(ld.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := int64(0); ; i++ {
				key := int64(w)<<32 | i
				resp, err := c.Do(Request{Op: OpPut, Key: key, Val: uint64(key) + 1})
				if err != nil {
					return // the leader is gone
				}
				if resp.Status != StatusOK {
					continue // draining; nothing was promised
				}
				if !resp.HasVal {
					t.Errorf("put %d acked without a sequence: %+v", key, resp)
					return
				}
				mu.Lock()
				oks = append(oks, acked{key, resp.Val})
				if len(oks) == 200 {
					once.Do(func() { close(enough) })
				}
				mu.Unlock()
			}
		}(w)
	}
	<-enough
	ld.shutdown() // mid-load: the writers find out by their connections dying
	wg.Wait()

	epoch, err := fl.s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch == 0 || epoch == oldEpoch {
		t.Fatalf("promoted under epoch %d; the old leader led %d", epoch, oldEpoch)
	}
	if fl.s.followerSource() != nil || fl.s.repl.hub.Load() == nil {
		t.Fatal("still a follower after promote")
	}
	if _, err := fl.s.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second promote = %v, want ErrNotFollower", err)
	}

	c, err := Dial(fl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, err := c.Seqs()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range oks {
		if v, ok, err := c.Get(a.key); err != nil || !ok || v != uint64(a.key)+1 {
			t.Fatalf("put %d was acked (seq %d) and is lost across promotion: v=%d ok=%v err=%v", a.key, a.seq, v, ok, err)
		}
		if int64(a.seq) > seqs[0] {
			t.Fatalf("put %d was stamped %d, past the promoted node's durable sequence %d", a.key, a.seq, seqs[0])
		}
	}
	// The promoted node serves mutations, stamped (it now leads).
	resp, err := c.Do(Request{Op: OpPut, Key: -1, Val: 1})
	if err != nil || resp.Status != StatusOK || !resp.HasVal {
		t.Fatalf("put on promoted leader: %+v err=%v", resp, err)
	}

	if st := readState(t, statePath); st.Epoch != epoch || len(st.Seqs) != 0 {
		t.Fatalf("state file after promotion = %+v, want the led lineage {epoch %d, no seqs}", st, epoch)
	}
	stopped = true
	fl.shutdown()
	if st := readState(t, statePath); st.Epoch != epoch || len(st.Seqs) != 0 {
		t.Fatalf("state file after shutdown = %+v: the pre-promotion position came back over lineage %d", st, epoch)
	}
}

// TestPromoteAllOrNothing pins the two ways a promotion must not go wrong,
// through the /promote handler. A follower that cannot lead (a mem engine
// has no journal to ship) refuses before touching its applier: every
// attempt answers 500, never 409, and the node goes on following — puts
// answer StatusNotLeader and the leader's writes keep arriving. And of
// several concurrent promotions of a follower that can lead exactly one
// answers 200; the rest find it leading already and answer 409.
func TestPromoteAllOrNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	for _, tc := range []struct {
		name     string
		disk     bool
		posts    int
		want200  int
		wantRest int
	}{
		{"cannot-lead", false, 3, 0, http.StatusInternalServerError},
		{"concurrent", true, 8, 1, http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld := startLeader(t, 1, Config{})
			defer ld.shutdown()
			cfg := Config{Shards: 1}
			if tc.disk {
				cfg = Config{Engines: diskEngines(t, t.TempDir(), 1)}
			}
			fl := startFollower(t, cfg, ReplOptions{Follow: ld.replAddr, Listen: "127.0.0.1:0", RetainBytes: 4 << 20})
			defer fl.shutdown()

			codes := make(chan int, tc.posts)
			h := fl.s.Handler()
			for i := 0; i < tc.posts; i++ {
				go func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/promote", nil))
					codes <- rec.Code
				}()
			}
			got200 := 0
			for i := 0; i < tc.posts; i++ {
				switch code := <-codes; code {
				case http.StatusOK:
					got200++
				case tc.wantRest:
				default:
					t.Errorf("POST /promote answered %d, want 200 or %d", code, tc.wantRest)
				}
			}
			if got200 != tc.want200 {
				t.Fatalf("%d of %d promotions answered 200, want %d", got200, tc.posts, tc.want200)
			}

			c, err := Dial(fl.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, err := c.Do(Request{Op: OpPut, Key: 1, Val: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.want200 == 1 {
				if resp.Status != StatusOK || !resp.HasVal {
					t.Fatalf("put on the promoted node: %+v, want a stamped OK", resp)
				}
				return
			}
			if resp.Status != StatusNotLeader {
				t.Fatalf("put after a refused promotion: %+v, want StatusNotLeader (the node must still follow)", resp)
			}
			lc, err := Dial(ld.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			if _, err := lc.Put(2, 22); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the leader's write to reach the still-following node", func() bool {
				v, ok, err := c.Get(2)
				return err == nil && ok && v == 22
			})
		})
	}
}

// TestPromoteWaitsForLastApply pins the order inside Promote: the hub must
// not exist, and the node must not accept writes, while an apply of the
// old leader's stream is still in flight — a straggler landing after the
// node began leading would diverge it from its own followers.
func TestPromoteWaitsForLastApply(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{})
	defer ld.shutdown()
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	eng := gatedEngine{DiskEngine: diskEngines(t, t.TempDir(), 1)[0].(*DiskEngine), gate: gate, entered: entered}
	fl := startFollower(t, Config{Engine: eng}, ReplOptions{Follow: ld.replAddr, Listen: "127.0.0.1:0", RetainBytes: 4 << 20})
	var open sync.Once
	defer func() {
		open.Do(func() { close(gate) })
		fl.shutdown()
	}()

	lc, err := Dial(ld.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Put(1, 11); err != nil {
		t.Fatal(err)
	}
	<-entered // the follower's applier is inside Apply, at the gate

	promoted := make(chan error, 1)
	go func() {
		_, err := fl.s.Promote()
		promoted <- err
	}()
	waitFor(t, "promote to take the role mutex", func() bool {
		if fl.s.repl.mu.TryLock() {
			fl.s.repl.mu.Unlock()
			return false
		}
		return true
	})
	// Let a wrongly ordered Promote run on; a right one is parked in Wait.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-promoted:
		t.Fatalf("promote returned (%v) while an apply was still in flight", err)
	default:
	}
	if fl.s.repl.hub.Load() != nil || fl.s.followerSource() == nil {
		t.Fatal("the node began leading while an apply was still in flight")
	}
	open.Do(func() { close(gate) })
	if err := <-promoted; err != nil {
		t.Fatalf("promote: %v", err)
	}
	c, err := Dial(fl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, ok, err := c.Get(1); err != nil || !ok || v != 11 {
		t.Fatalf("the in-flight apply did not land before promotion: v=%d ok=%v err=%v", v, ok, err)
	}
}

// TestStateFileTornOrCut is the state file's contract at the role machine.
// A disk follower whose state file was torn by a power loss starts anyway —
// logged, epoch 0, everything shipped again — and converges on the leader
// (btserved used to exit 1 until someone passed -resync). And when FailFS
// cuts the role machine's own save at every syscall, and tears its write,
// whatever file survives either decodes to a position the follower's
// engines really hold — this epoch, no shard past what was applied and
// committed — or to nothing, which resyncs.
func TestStateFileTornOrCut(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 2, Config{})
	defer ld.shutdown()
	lc, err := Dial(ld.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i := int64(0); i < 100; i++ {
		if _, err := lc.Put(i, uint64(i)+5); err != nil {
			t.Fatal(err)
		}
	}
	leaderSeqs := waitSeqs(t, ld.addr, func([]int64) bool { return true })
	caughtUp := func(seqs []int64) bool { return seqs[0] >= leaderSeqs[0] && seqs[1] >= leaderSeqs[1] }

	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(statePath, []byte(`{"id":77,"epoch":1234,"se`), 0o644); err != nil {
		t.Fatal(err)
	}
	fl := startFollower(t, Config{Engines: diskEngines(t, t.TempDir(), 2)},
		ReplOptions{Follow: ld.replAddr, StatePath: statePath})
	defer fl.shutdown()
	waitSeqs(t, fl.addr, caughtUp)
	if got, want := scanAll(t, fl.addr), scanAll(t, ld.addr); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower holds %d keys after the resync, leader %d", len(got), len(want))
	}

	r, ap := &fl.s.repl, fl.s.repl.ap
	held := func() repl.State {
		return repl.State{ID: r.id, Epoch: ap.Epoch(), Seqs: ap.AppliedSeqs()}
	}
	r.save(ap.Epoch(), ap.AppliedSeqs(), true)
	if st := readState(t, statePath); !reflect.DeepEqual(st, held()) {
		t.Fatalf("state file %+v, want the applied position %+v", st, held())
	}
	// More writes, so the next save has a new position to write over the old.
	for i := int64(100); i < 140; i++ {
		if _, err := lc.Put(i, uint64(i)+5); err != nil {
			t.Fatal(err)
		}
	}
	leaderSeqs = waitSeqs(t, ld.addr, func([]int64) bool { return true })
	waitSeqs(t, fl.addr, caughtUp)
	plans := []pagestore.FailPlan{{CrashAt: 1}, {CrashAt: 2}, {CrashAt: 3}, {FailSyncAt: 1}}
	for torn := 0; torn < 40; torn += 3 {
		plans = append(plans, pagestore.FailPlan{FailWriteAt: 1, TornBytes: torn})
	}
	for _, plan := range plans {
		r.saveMu.Lock() // the applier saves too
		r.fs = pagestore.NewFailFS(nil, plan)
		r.saveMu.Unlock()
		r.save(ap.Epoch(), ap.AppliedSeqs(), true)
		st, now := readState(t, statePath), held()
		if reflect.DeepEqual(st, repl.State{}) {
			continue // resyncs
		}
		if st.ID != now.ID || st.Epoch != now.Epoch || len(st.Seqs) != len(now.Seqs) {
			t.Fatalf("plan %+v: survivor %+v is not this follower's (%+v)", plan, st, now)
		}
		for i := range st.Seqs {
			if st.Seqs[i] > now.Seqs[i] {
				t.Fatalf("plan %+v: survivor claims shard %d at %d, the engine holds %d", plan, i, st.Seqs[i], now.Seqs[i])
			}
		}
	}
	r.saveMu.Lock()
	r.fs = nil
	r.saveMu.Unlock()
}
