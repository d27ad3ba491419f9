package server

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/query"
	"btreeperf/internal/repl"
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
	hub      *repl.Hub
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
	hub, err := s.StartHub(1, 4<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(rln)
	return &leaderHarness{
		s:        s,
		addr:     addr,
		replAddr: rln.Addr().String(),
		hub:      hub,
		shutdown: func() {
			stop()
			hub.Close()
			s.Close()
		},
	}
}

// followerHarness is a serving follower streaming from a leader.
type followerHarness struct {
	s        *Server
	addr     string
	ap       *repl.Applier
	shutdown func()
}

// startFollower runs a follower server (mem by default; pass Engines in
// cfg for disk) attached to the leader's replication listener.
func startFollower(t testing.TB, cfg Config, replAddr string, id uint64) *followerHarness {
	t.Helper()
	s, addr, stop := startServer(t, cfg)
	ap := repl.NewApplier(repl.ApplierConfig{
		Addr:       replAddr,
		ID:         id,
		Shards:     s.ApplierShards(),
		Logf:       t.Logf,
		RedialWait: 20 * time.Millisecond,
	})
	s.AttachFollower(ap)
	go ap.Run()
	return &followerHarness{
		s:    s,
		addr: addr,
		ap:   ap,
		shutdown: func() {
			ap.Stop()
			ap.Wait()
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
			fl := startFollower(t, fcfg, ld.replAddr, 42)
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
	s.AttachFollower(fakeFollower{seqs: []int64{100}})
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
	if v, ok, err := c.GetSeq(7, 100); err != nil || !ok || v != 77 {
		t.Fatalf("getseq at applied: v=%d ok=%v err=%v", v, ok, err)
	}
	if _, ok, err := c.GetSeq(99, 0); err != nil || ok {
		t.Fatalf("getseq miss: ok=%v err=%v", ok, err)
	}
	// Seqs reports the follower's applied positions.
	seqs, err := c.Seqs()
	if err != nil || len(seqs) != 1 || seqs[0] != 100 {
		t.Fatalf("seqs: %v err=%v, want [100]", seqs, err)
	}

	// Detach: the same server serves mutations again.
	s.DetachFollower()
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

	fl := startFollower(t, Config{Shards: 1}, ld.replAddr, 7)
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
// leader with one worker has a single follower that is held before its
// first apply; while the first put waits for that follower's ack, a second
// put from another connection must still reach its own fsync. With the
// wait inside the fsync loop (or, before the pipeline, inside the only
// worker) the second group could not become durable until the first one's
// wait was over.
func TestSemiSyncWaitOverlapsNextFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{Workers: 1, ReplAcks: 1, ReplAckTimeout: 20 * time.Second})
	defer ld.shutdown()

	fs, _, stopFollower := startServer(t, Config{Shards: 1})
	shards := fs.ApplierShards()
	apply, gate := shards[0].Apply, make(chan struct{})
	shards[0].Apply = func(o repl.Ops) error {
		<-gate
		return apply(o)
	}
	ap := repl.NewApplier(repl.ApplierConfig{Addr: ld.replAddr, ID: 11, Shards: shards, Logf: t.Logf, RedialWait: 20 * time.Millisecond})
	fs.AttachFollower(ap)
	go ap.Run()
	var open sync.Once
	defer func() {
		open.Do(func() { close(gate) })
		ap.Stop()
		ap.Wait()
		stopFollower()
		fs.Close()
	}()
	waitFor(t, "the follower to register", func() bool {
		f := ld.hub.Stats().Followers
		return len(f) == 1 && f[0].Connected
	})

	eng := ld.s.shards[0].eng.(*DiskEngine)
	base := eng.DurableSeq()
	put := func(key int64) <-chan Response {
		out := make(chan Response, 1)
		c, err := Dial(ld.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		go func() {
			resp, err := c.Do(Request{Op: OpPut, Key: key, Val: uint64(key)})
			if err != nil {
				t.Errorf("put %d: %v", key, err)
			}
			out <- resp
		}()
		return out
	}
	first := put(1)
	waitFor(t, "the first put's fsync", func() bool { return eng.DurableSeq() == base+1 })
	second := put(2)
	waitFor(t, "the second put's fsync while the first still waits for its follower", func() bool {
		return eng.DurableSeq() == base+2
	})
	select {
	case resp := <-first:
		t.Fatalf("first put answered %+v before any follower had acked it", resp)
	default:
	}
	open.Do(func() { close(gate) })
	for i, ch := range []<-chan Response{first, second} {
		resp := <-ch
		if resp.Status != StatusOK || !resp.HasVal || int64(resp.Val) < base+int64(i)+1 {
			t.Fatalf("put %d after the follower caught up: %+v, want OK stamped at or past sequence %d", i+1, resp, base+int64(i)+1)
		}
	}
	if got := ld.s.shards[0].ctr[cAckTimeouts].Load(); got != 0 {
		t.Fatalf("%d ack timeouts with a follower that did ack", got)
	}
}

// TestReplicaSetRouting pins the replication-aware client: writes land
// on the leader, reads fan out to the follower under the client's own
// read floor, and read-your-writes holds — a get after an acked put
// never observes the pre-put state, no matter which target serves it.
func TestReplicaSetRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 2, Config{})
	defer ld.shutdown()
	fl := startFollower(t, Config{Shards: 2}, ld.replAddr, 9)
	defer fl.shutdown()

	rs, err := DialReplicaSet(ReplicaSetConfig{
		Leader:   ld.addr,
		Replicas: []string{fl.addr},
		Retry:    RetryConfig{MaxAttempts: 2, OpTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.NumShards() != 2 {
		t.Fatalf("shard count: %d, want 2", rs.NumShards())
	}

	for i := int64(0); i < 200; i++ {
		if _, err := rs.Put(i, uint64(i)+1); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		// Immediate read-back: must never be stale, whoever serves it.
		v, ok, err := rs.Get(i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !ok || v != uint64(i)+1 {
			t.Fatalf("stale read after acked put: key %d v=%d ok=%v", i, v, ok)
		}
	}
	for i := int64(0); i < 200; i += 7 {
		if _, err := rs.Del(i); err != nil {
			t.Fatalf("del %d: %v", i, err)
		}
		if _, ok, err := rs.Get(i); err != nil || ok {
			t.Fatalf("stale read after acked del: key %d ok=%v err=%v", i, ok, err)
		}
	}

	// Scans go to the follower (or fall back); either way the merged
	// view must reflect every acked write.
	var got []query.KV
	var token []byte
	for {
		page, next, err := rs.Scan(math.MinInt64, math.MaxInt64, 64, token)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if next == nil {
			break
		}
		token = next
	}
	want := scanAll(t, ld.addr)
	if len(got) != len(want) {
		t.Fatalf("scan saw %d keys, leader has %d", len(got), len(want))
	}

	st := rs.Stats()
	if len(st.Targets) != 1 {
		t.Fatalf("targets: %+v", st.Targets)
	}
	reads := st.Targets[0].Gets + st.LeaderReads
	if reads == 0 {
		t.Fatal("no reads counted")
	}
	t.Logf("replica served %d gets, %d scan pages; leader served %d reads (%d fallbacks, %d lagging refusals)",
		st.Targets[0].Gets, st.Targets[0].Scans, st.LeaderReads, st.LeaderFalls, st.StaleRefused)
}

// TestPromoteFlipsRoles pins the in-process promotion path: a follower
// with a promote hook detaches its applier, starts a hub under a new
// epoch, and serves mutations.
func TestPromoteFlipsRoles(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a live follower stream")
	}
	ld := startLeader(t, 1, Config{})
	fl := &followerHarness{}
	// The follower must be disk-backed to lead after promotion.
	s, addr, stop := startServer(t, Config{Engines: diskEngines(t, t.TempDir(), 1)})
	ap := repl.NewApplier(repl.ApplierConfig{
		Addr:       ld.replAddr,
		ID:         5,
		Shards:     s.ApplierShards(),
		Logf:       t.Logf,
		RedialWait: 20 * time.Millisecond,
	})
	s.AttachFollower(ap)
	go ap.Run()
	fl.s, fl.addr, fl.ap = s, addr, ap
	defer func() {
		stop()
		s.Close()
	}()

	var hub *repl.Hub
	s.SetPromoteHook(func() (uint64, error) {
		ap.Stop()
		ap.Wait()
		s.DetachFollower()
		h, err := s.StartHub(2, 4<<20, t.Logf)
		if err != nil {
			return 0, err
		}
		hub = h
		return h.Epoch(), nil
	})

	// Replicate some state, then kill the leader.
	cl, err := Dial(ld.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if _, err := cl.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	leaderSeqs := waitSeqs(t, ld.addr, func([]int64) bool { return true })
	waitSeqs(t, fl.addr, func(seqs []int64) bool { return seqs[0] >= leaderSeqs[0] })
	ld.shutdown()

	epoch, err := fl.s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("epoch: %d, want 2", epoch)
	}
	defer hub.Close()
	if fl.s.IsFollower() {
		t.Fatal("still a follower after promote")
	}
	if _, err := fl.s.Promote(); err == nil {
		t.Fatal("second promote should refuse")
	}

	// The promoted node serves mutations, stamped (it now leads).
	c, err := Dial(fl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(Request{Op: OpPut, Key: 1000, Val: 1})
	if err != nil || resp.Status != StatusOK || !resp.HasVal {
		t.Fatalf("put on promoted leader: %+v err=%v", resp, err)
	}
	if v, ok, err := c.Get(25); err != nil || !ok || v != 25 {
		t.Fatalf("replicated state lost across promotion: v=%d ok=%v err=%v", v, ok, err)
	}
}
