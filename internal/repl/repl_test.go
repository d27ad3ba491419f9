package repl

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/journal"
	"btreeperf/internal/query"
)

func TestProtoRoundTrips(t *testing.T) {
	h := Hello{ID: 0xDEADBEEF, Epoch: 7, Seqs: []int64{0, 42, 1 << 40}}
	if got, err := ParseHello(EncodeHello(h)); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("hello: %+v / %v", got, err)
	}
	a := HelloAck{Epoch: 9, Shards: 2}
	if got, err := ParseHelloAck(EncodeHelloAck(a)); err != nil || !reflect.DeepEqual(got, a) {
		t.Fatalf("helloack: %+v / %v", got, err)
	}
	o := Ops{Shard: 3, First: 100, Head: 120, Ops: []journal.Op{
		{Kind: journal.OpInsert, Key: -5, Val: 77},
		{Kind: journal.OpDelete, Key: 9},
	}}
	if got, err := ParseOps(EncodeOps(o)); err != nil || !reflect.DeepEqual(got, o) {
		t.Fatalf("ops: %+v / %v", got, err)
	}
	ack := Ack{Shard: 2, Seq: 55}
	if got, err := ParseAck(EncodeAck(ack)); err != nil || got != ack {
		t.Fatalf("ack: %+v / %v", got, err)
	}
	if got, err := ParseSnapBegin(EncodeSnapBegin(4)); err != nil || got != 4 {
		t.Fatalf("snapbegin: %d / %v", got, err)
	}
	se := SnapEnd{Shard: 0, Seq: 31}
	if got, err := ParseSnapEnd(EncodeSnapEnd(se)); err != nil || got != se {
		t.Fatalf("snapend: %+v / %v", got, err)
	}
}

// A corrupted record inside an Ops frame must fail parsing (the CRC
// framing travels with the record), not reach apply.
func TestParseOpsRejectsCorruptRecord(t *testing.T) {
	o := Ops{Shard: 0, First: 1, Head: 2, Ops: []journal.Op{
		{Kind: journal.OpInsert, Key: 1, Val: 1},
		{Kind: journal.OpInsert, Key: 2, Val: 2},
	}}
	b := EncodeOps(o)
	b[24+journal.OpRecSize+3] ^= 0xFF
	if _, err := ParseOps(b); err == nil {
		t.Fatal("corrupt ops frame parsed cleanly")
	}
}

// leaderShard is a test leader: a journal plus a map oracle, mutated the
// way the serving engine does it — op applied, journaled, group
// committed.
type leaderShard struct {
	mu   sync.Mutex
	data map[int64]uint64
	jnl  *journal.Journal
}

func newLeaderShard(t *testing.T, dir string, i int) *leaderShard {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard-%d.db", i))
	j, err := journal.OpenFS(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	ls := &leaderShard{data: make(map[int64]uint64), jnl: j}
	t.Cleanup(func() { j.Close() })
	return ls
}

func (ls *leaderShard) put(t *testing.T, key int64, val uint64) {
	t.Helper()
	ls.mu.Lock()
	ls.data[key] = val
	err := ls.jnl.Append(journal.Op{Kind: journal.OpInsert, Key: key, Val: val})
	ls.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func (ls *leaderShard) del(t *testing.T, key int64) {
	t.Helper()
	ls.mu.Lock()
	delete(ls.data, key)
	err := ls.jnl.Append(journal.Op{Kind: journal.OpDelete, Key: key})
	ls.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func (ls *leaderShard) hubShard() HubShard {
	return HubShard{
		Journal: ls.jnl,
		Snapshot: func(yield func([]query.KV) error) (int64, error) {
			// Capture the durable bound BEFORE reading state — the fuzzy
			// snapshot contract.
			snapSeq := ls.jnl.SeqDurable()
			ls.mu.Lock()
			kvs := make([]query.KV, 0, len(ls.data))
			for k, v := range ls.data {
				kvs = append(kvs, query.KV{Key: k, Val: v})
			}
			ls.mu.Unlock()
			sort.Slice(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
			return snapSeq, yield(kvs)
		},
	}
}

// checkpoint rotates the journal to its head with no image: every record
// is retired from the active oplog, sealed for followers or dropped.
func (ls *leaderShard) checkpoint(t *testing.T) {
	t.Helper()
	if _, err := ls.jnl.Rotate(ls.jnl.SeqAppended(), nil); err != nil {
		t.Fatal(err)
	}
}

func (ls *leaderShard) snapshot() map[int64]uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make(map[int64]uint64, len(ls.data))
	for k, v := range ls.data {
		out[k] = v
	}
	return out
}

// followerShard applies the stream into a map.
type followerShard struct {
	mu   sync.Mutex
	data map[int64]uint64
}

func (fs *followerShard) applierShard() ApplierShard {
	return ApplierShard{
		Apply: func(ops []journal.Op) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			for _, op := range ops {
				switch op.Kind {
				case journal.OpInsert:
					fs.data[op.Key] = op.Val
				case journal.OpDelete:
					delete(fs.data, op.Key)
				}
			}
			return nil
		},
		Commit: func() error { return nil },
		Reset: func() error {
			fs.mu.Lock()
			fs.data = make(map[int64]uint64)
			fs.mu.Unlock()
			return nil
		},
	}
}

func (fs *followerShard) snapshot() map[int64]uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[int64]uint64, len(fs.data))
	for k, v := range fs.data {
		out[k] = v
	}
	return out
}

type replPair struct {
	leaders   []*leaderShard
	followers []*followerShard
	hub       *Hub
	applier   *Applier
	addr      string
}

func startHub(t *testing.T, leaders []*leaderShard, epoch uint64) (*Hub, string) {
	t.Helper()
	shards := make([]HubShard, len(leaders))
	for i, ls := range leaders {
		shards[i] = ls.hubShard()
	}
	hub := NewHub(epoch, shards, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(ln)
	t.Cleanup(func() { ln.Close(); hub.Close() })
	return hub, ln.Addr().String()
}

func startPair(t *testing.T, nShards int, followerID uint64) *replPair {
	t.Helper()
	dir := t.TempDir()
	leaders := make([]*leaderShard, nShards)
	for i := range leaders {
		leaders[i] = newLeaderShard(t, dir, i)
	}
	hub, addr := startHub(t, leaders, 1)
	followers := make([]*followerShard, nShards)
	shards := make([]ApplierShard, nShards)
	for i := range followers {
		followers[i] = &followerShard{data: make(map[int64]uint64)}
		shards[i] = followers[i].applierShard()
	}
	ap := NewApplier(ApplierConfig{
		Addr:   addr,
		ID:     followerID,
		Shards: shards,
		Logf:   t.Logf,
	})
	go ap.Run()
	t.Cleanup(ap.Stop)
	return &replPair{leaders: leaders, followers: followers, hub: hub, applier: ap, addr: addr}
}

func (p *replPair) waitCaughtUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for s, ls := range p.leaders {
			if p.applier.AppliedSeq(s) < ls.jnl.SeqDurable() {
				ok = false
				break
			}
		}
		if ok {
			for s := range p.leaders {
				if !reflect.DeepEqual(p.leaders[s].snapshot(), p.followers[s].snapshot()) {
					ok = false // applied seq can lead state mid-resync; keep waiting
					break
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for s := range p.leaders {
				want, got := p.leaders[s].snapshot(), p.followers[s].snapshot()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("shard %d diverged: leader %d keys, follower %d keys (applied %v)",
						s, len(want), len(got), p.applier.AppliedSeqs())
				}
			}
			t.Fatalf("follower never caught up: applied %v", p.applier.AppliedSeqs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Live streaming: a connected follower converges on the leader's state
// across multiple shards, with deletes mixed in. A fresh follower claims
// nothing, so it joins by one snapshot per shard and takes none after.
func TestHubApplierLiveStream(t *testing.T) {
	p := startPair(t, 2, 11)
	for i := int64(0); i < 400; i++ {
		s := int(i) % 2
		p.leaders[s].put(t, i, uint64(i)*7)
		if i%5 == 4 {
			p.leaders[s].del(t, i-4)
		}
		if i%31 == 0 {
			if err := p.leaders[s].jnl.Commit(); err != nil {
				t.Fatal(err)
			}
			p.hub.Poke()
		}
	}
	for _, ls := range p.leaders {
		if err := ls.jnl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	p.hub.Poke()
	p.waitCaughtUp(t)
	if st := p.applier.Stats(); st.Snapshots != 2 {
		t.Fatalf("live stream took %d snapshots, want 2 (one per shard to join)", st.Snapshots)
	}
}

// A follower that claimed a position and went away catches up from
// sealed segments spanning several checkpoints — the retained-log path,
// no snapshot.
func TestCatchUpFromRetainedSegments(t *testing.T) {
	p := startPair(t, 1, 21)
	ls := p.leaders[0]
	// A registered-follower floor of 0 retains everything.
	ls.jnl.SetRetention(func() int64 { return 0 }, 1<<20)
	ls.put(t, -1, 1)
	if err := ls.jnl.Commit(); err != nil {
		t.Fatal(err)
	}
	p.hub.Poke()
	p.waitCaughtUp(t)
	p.applier.Stop()
	p.applier.Wait()
	epoch, seqs := p.applier.Epoch(), p.applier.AppliedSeqs()
	if seqs[0] == 0 {
		t.Fatal("test setup: the follower claims no position")
	}

	for i := int64(0); i < 300; i++ {
		ls.put(t, i, uint64(i)+1)
		if i%100 == 99 {
			if err := ls.jnl.Commit(); err != nil {
				t.Fatal(err)
			}
			ls.checkpoint(t)
		}
	}
	if n, _ := ls.jnl.RetainedSegments(); n < 3 {
		t.Fatalf("test setup: %d sealed segments, want 3 or more", n)
	}
	p.applier = NewApplier(ApplierConfig{Addr: p.addr, ID: 21, Epoch: epoch, Seqs: seqs,
		Shards: []ApplierShard{p.followers[0].applierShard()}, Logf: t.Logf})
	go p.applier.Run()
	defer p.applier.Stop()
	p.waitCaughtUp(t)
	if st := p.applier.Stats(); st.Snapshots != 0 {
		t.Fatalf("segment catch-up took %d snapshots, want 0", st.Snapshots)
	}
	// The applier is caught up, but the hub only learns that when the
	// ack frame lands; poll rather than racing the wire.
	ackDeadline := time.Now().Add(10 * time.Second)
	for {
		st := p.hub.Stats()
		if len(st.Followers) == 1 && st.Followers[0].LagSeqs == 0 {
			break
		}
		if time.Now().After(ackDeadline) {
			t.Fatalf("hub stats after catch-up: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// A follower whose position was evicted from the retained log must be
// degraded to a snapshot resync and still converge exactly.
func TestEvictedFollowerSnapshotResync(t *testing.T) {
	dir := t.TempDir()
	ls := newLeaderShard(t, dir, 0)
	// Budget below one segment: every checkpoint evicts the history.
	ls.jnl.SetRetention(func() int64 { return 0 }, 1)
	for i := int64(0); i < 150; i++ {
		ls.put(t, i, uint64(i)+1)
	}
	ls.jnl.Commit()
	ls.checkpoint(t)
	for i := int64(150); i < 200; i++ {
		ls.put(t, i, uint64(i)+1)
	}
	ls.jnl.Commit()

	if low := ls.jnl.LowestSeq(); low == 0 {
		t.Fatal("test setup: history not evicted")
	}
	hub, addr := startHub(t, []*leaderShard{ls}, 1)
	fs := &followerShard{data: make(map[int64]uint64)}
	ap := NewApplier(ApplierConfig{Addr: addr, ID: 31, Shards: []ApplierShard{fs.applierShard()}, Logf: t.Logf})
	go ap.Run()
	defer ap.Stop()

	p := &replPair{leaders: []*leaderShard{ls}, followers: []*followerShard{fs}, hub: hub, applier: ap}
	p.waitCaughtUp(t)
	if st := ap.Stats(); st.Snapshots == 0 {
		t.Fatal("evicted follower caught up without a snapshot?")
	}
}

// A follower carrying sequences from another epoch (a previous leader's
// lineage) must be resynced from a snapshot, never tailed.
func TestEpochMismatchForcesSnapshot(t *testing.T) {
	dir := t.TempDir()
	ls := newLeaderShard(t, dir, 0)
	ls.jnl.SetRetention(func() int64 { return 0 }, 1<<20)
	for i := int64(0); i < 50; i++ {
		ls.put(t, i, uint64(i)+1)
	}
	ls.jnl.Commit()

	hub, addr := startHub(t, []*leaderShard{ls}, 7)
	fs := &followerShard{data: make(map[int64]uint64)}
	ap := NewApplier(ApplierConfig{
		Addr:   addr,
		ID:     41,
		Epoch:  3,           // a dead leader's epoch
		Seqs:   []int64{50}, // plausible position in the old lineage
		Shards: []ApplierShard{fs.applierShard()},
		Logf:   t.Logf,
	})
	go ap.Run()
	defer ap.Stop()

	p := &replPair{leaders: []*leaderShard{ls}, followers: []*followerShard{fs}, hub: hub, applier: ap}
	p.waitCaughtUp(t)
	if st := ap.Stats(); st.Snapshots == 0 {
		t.Fatal("epoch-mismatched follower was tailed, want snapshot resync")
	}
	if got := ap.Epoch(); got != 7 {
		t.Fatalf("follower epoch = %d, want 7 (adopted from leader)", got)
	}
}

// A lineage change resyncs every shard. While the second shard's snapshot
// is still loading, no reported position may claim it — the first shard's
// SnapEnd already reports the new epoch — and an applier restarted from
// the last report must snapshot that shard again, not tail over the half
// of it that was loaded.
func TestLineageResyncNeverClaimsHalfAShard(t *testing.T) {
	dir := t.TempDir()
	leaders := []*leaderShard{newLeaderShard(t, dir, 0), newLeaderShard(t, dir, 1)}
	for i := int64(0); i < 100; i++ {
		leaders[i%2].put(t, i, uint64(i)+1)
	}
	for _, ls := range leaders {
		if err := ls.jnl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	hub, addr := startHub(t, leaders, 7)
	followers := []*followerShard{{data: map[int64]uint64{}}, {data: map[int64]uint64{}}}

	var mu sync.Mutex
	var reports []State
	held, release := make(chan struct{}), make(chan struct{})
	shards := []ApplierShard{followers[0].applierShard(), followers[1].applierShard()}
	// Shard 1's first snapshot page waits for release, then fails: the
	// follower dies with shard 1 reset and nothing of it loaded.
	shards[1].Apply = func([]journal.Op) error {
		close(held)
		<-release
		return errors.New("follower killed mid-load")
	}
	ap := NewApplier(ApplierConfig{
		Addr:   addr,
		ID:     91,
		Epoch:  3,               // a dead leader's epoch
		Seqs:   []int64{50, 50}, // plausible positions in the old lineage
		Shards: shards,
		OnProgress: func(epoch uint64, seqs []int64) {
			mu.Lock()
			reports = append(reports, State{Epoch: epoch, Seqs: append([]int64(nil), seqs...)})
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	go ap.Run()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 1's snapshot never started")
	}
	mu.Lock()
	for _, r := range reports {
		if r.Seqs[1] != 0 {
			t.Errorf("progress reported %+v while shard 1 was still loading, want shard 1 at 0", r)
		}
	}
	mu.Unlock()
	ap.Stop()
	close(release)
	ap.Wait()

	mu.Lock()
	last := reports[len(reports)-1]
	mu.Unlock()
	ap = NewApplier(ApplierConfig{Addr: addr, ID: 91, Epoch: last.Epoch, Seqs: last.Seqs,
		Shards: []ApplierShard{followers[0].applierShard(), followers[1].applierShard()}, Logf: t.Logf})
	go ap.Run()
	defer ap.Stop()
	p := &replPair{leaders: leaders, followers: followers, hub: hub, applier: ap}
	p.waitCaughtUp(t)
	if st := ap.Stats(); st.Snapshots != 1 {
		t.Fatalf("restart from %+v took %d snapshots, want 1 (shard 1 only)", last, st.Snapshots)
	}
}

// A follower that claims nothing — epoch 0: a fresh node, -resync, a torn
// state file — is snapshotted even while the leader still holds its log
// from sequence 1, so state the leader never wrote does not survive.
func TestUnclaimedPositionIsSnapshotted(t *testing.T) {
	dir := t.TempDir()
	ls := newLeaderShard(t, dir, 0)
	for i := int64(0); i < 50; i++ {
		ls.put(t, i, uint64(i)+1)
	}
	ls.jnl.Commit()
	if low := ls.jnl.LowestSeq(); low != 0 {
		t.Fatalf("test setup: LowestSeq = %d, want 0", low)
	}
	hub, addr := startHub(t, []*leaderShard{ls}, 7)
	fs := &followerShard{data: map[int64]uint64{-42: 1}} // a key the leader never wrote
	ap := NewApplier(ApplierConfig{Addr: addr, ID: 81, Shards: []ApplierShard{fs.applierShard()}, Logf: t.Logf})
	go ap.Run()
	defer ap.Stop()

	p := &replPair{leaders: []*leaderShard{ls}, followers: []*followerShard{fs}, hub: hub, applier: ap}
	p.waitCaughtUp(t)
	if st := ap.Stats(); st.Snapshots != 1 {
		t.Fatalf("epoch-0 follower took %d snapshots, want 1", st.Snapshots)
	}
}

// WaitAcked is the semi-sync barrier: it must release once enough
// followers ack, and time out — without releasing — when they can't.
func TestWaitAcked(t *testing.T) {
	p := startPair(t, 1, 51)
	p.leaders[0].put(t, 1, 100)
	if err := p.leaders[0].jnl.Commit(); err != nil {
		t.Fatal(err)
	}
	seq := p.leaders[0].jnl.SeqDurable()
	p.hub.Poke()
	if !p.hub.WaitAcked(0, seq, 1, 5*time.Second) {
		t.Fatal("WaitAcked(k=1) timed out with a live follower")
	}
	// Only one follower exists: k=2 must time out, not falsely succeed.
	start := time.Now()
	if p.hub.WaitAcked(0, seq, 2, 100*time.Millisecond) {
		t.Fatal("WaitAcked(k=2) succeeded with one follower")
	}
	if time.Since(start) < 90*time.Millisecond {
		t.Fatal("WaitAcked(k=2) returned before its timeout")
	}
}

// The retention floor follows the slowest registered follower and stays
// pinned while it is disconnected.
func TestRetentionFloorTracksFollowers(t *testing.T) {
	p := startPair(t, 1, 61)
	if got := p.hub.RetentionFloor(0); got != math.MaxInt64 {
		// The follower may already have registered with seq 0.
		if got != 0 {
			t.Fatalf("floor before acks = %d, want 0 or MaxInt64", got)
		}
	}
	p.leaders[0].put(t, 1, 1)
	p.leaders[0].jnl.Commit()
	seq := p.leaders[0].jnl.SeqDurable()
	p.hub.Poke()
	if !p.hub.WaitAcked(0, seq, 1, 5*time.Second) {
		t.Fatal("follower never acked")
	}
	if got := p.hub.RetentionFloor(0); got != seq {
		t.Fatalf("floor = %d, want %d", got, seq)
	}
	// Disconnect: the registration (and floor) must survive.
	p.applier.Stop()
	time.Sleep(20 * time.Millisecond)
	if got := p.hub.RetentionFloor(0); got != seq {
		t.Fatalf("floor after disconnect = %d, want %d (registration dropped?)", got, seq)
	}
}
