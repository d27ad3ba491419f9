package server

import (
	"errors"
	"fmt"
	"sync/atomic"

	"btreeperf/internal/query"
)

// ErrLagging is returned when a follower refused a bounded-staleness
// read because its applied sequence had not reached the client's floor.
// ReplicaSet handles it internally (the read retries on the leader);
// callers of Client.GetSeq see it directly.
var ErrLagging = errors.New("server: follower lagging behind read floor")

// ReadFloor is a replication-aware client's per-shard read floor: the
// highest durable sequence the leader has acknowledged to it, one slot per
// leader shard (make(ReadFloor, n)). Observe raises a key's shard to the
// sequence stamped on an acked put or del; For is the MinSeq a
// bounded-staleness get of that key carries, so no follower serves the
// client a state older than its own acknowledged writes. The key→shard
// routing is the server's, a pure function of (key, n): stable across
// restarts and processes. Safe for concurrent use.
type ReadFloor []atomic.Int64

// Observe raises the floor of key's shard to seq; lower values are ignored.
func (f ReadFloor) Observe(key, seq int64) {
	slot := &f[shardIndex(key, len(f))]
	for {
		cur := slot.Load()
		if seq <= cur || slot.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// For returns the floor of key's shard.
func (f ReadFloor) For(key int64) int64 { return f[shardIndex(key, len(f))].Load() }

// Seqs returns every shard's floor, indexed by shard.
func (f ReadFloor) Seqs() []int64 {
	out := make([]int64, len(f))
	for i := range f {
		out[i] = f[i].Load()
	}
	return out
}

// ReplicaSetConfig parameterizes DialReplicaSet.
type ReplicaSetConfig struct {
	Leader   string   // leader address (mutations, fallback reads)
	Replicas []string // follower addresses (gets and scans fan out here)
	Retry    RetryConfig
}

// ReplicaTargetStats counts one read target's traffic.
type ReplicaTargetStats struct {
	Addr    string
	Gets    int64 // gets served by this target (including misses)
	Scans   int64 // scan pages served by this target
	Errors  int64 // transport/status failures that fell back to the leader
	Lagging int64 // bounded-staleness refusals that fell back to the leader
}

// replicaTarget is one follower connection plus its counters.
type replicaTarget struct {
	addr    string
	c       *RClient
	gets    atomic.Int64
	scans   atomic.Int64
	errs    atomic.Int64
	lagging atomic.Int64
}

// ReplicaSet is a replication-aware client: mutations go to the leader,
// gets and scans fan out across the followers round-robin, and every
// read is bounded-staleness safe — the client tracks, per shard, the
// highest durable sequence the leader has acknowledged to it (stamped
// on put/del responses in replicated mode) and sends it as the read's
// floor. A follower that has not applied that far answers StatusLagging
// and the read retries on the leader, so the client never observes a
// state older than its own acknowledged writes (monotonic
// read-your-writes, per client). Safe for concurrent use.
type ReplicaSet struct {
	leader   *RClient
	replicas []*replicaTarget
	floor    ReadFloor // learned from the leader's acks
	rr       atomic.Uint64

	leaderReads  atomic.Int64 // reads served by the leader (fallback or no replicas)
	leaderFalls  atomic.Int64 // reads that started on a replica and fell back
	staleRefused atomic.Int64 // StatusLagging refusals observed (never stale data)
}

// DialReplicaSet connects to the leader (learning the shard count from
// its seqs probe) and to every replica.
func DialReplicaSet(cfg ReplicaSetConfig) (*ReplicaSet, error) {
	leader, err := DialResilient(cfg.Leader, cfg.Retry)
	if err != nil {
		return nil, err
	}
	seqs, err := leader.Seqs()
	if err != nil {
		leader.Close()
		return nil, fmt.Errorf("server: replica set: leader seqs: %w", err)
	}
	rs := &ReplicaSet{
		leader: leader,
		floor:  make(ReadFloor, len(seqs)),
	}
	for _, addr := range cfg.Replicas {
		c, err := DialResilient(addr, cfg.Retry)
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("server: replica set: replica %s: %w", addr, err)
		}
		rs.replicas = append(rs.replicas, &replicaTarget{addr: addr, c: c})
	}
	return rs, nil
}

// NumShards returns the leader's shard count.
func (rs *ReplicaSet) NumShards() int { return len(rs.floor) }

// Put stores key→val on the leader and absorbs the acknowledged durable
// sequence into the shard's read floor.
func (rs *ReplicaSet) Put(key int64, val uint64) (bool, error) {
	return rs.mutate(Request{Op: OpPut, Key: key, Val: val})
}

// Del removes key on the leader, absorbing the acked sequence.
func (rs *ReplicaSet) Del(key int64) (bool, error) {
	return rs.mutate(Request{Op: OpDel, Key: key})
}

func (rs *ReplicaSet) mutate(req Request) (bool, error) {
	resp, err := rs.leader.call(req)
	if err != nil {
		return false, err
	}
	if resp.Status == StatusNotLeader {
		return false, errors.New("server: replica set: leader target is a follower")
	}
	if resp.HasVal {
		rs.floor.Observe(req.Key, int64(resp.Val))
	}
	return resp.Status == StatusOK, nil
}

// pick chooses the next replica round-robin; nil when the set has none.
func (rs *ReplicaSet) pick() *replicaTarget {
	if len(rs.replicas) == 0 {
		return nil
	}
	return rs.replicas[rs.rr.Add(1)%uint64(len(rs.replicas))]
}

// Get reads key with bounded staleness: a follower serves it only if
// its applied sequence has reached this client's floor for the key's
// shard; otherwise (lagging, shed, or transport failure) the leader
// serves it.
func (rs *ReplicaSet) Get(key int64) (uint64, bool, error) {
	t := rs.pick()
	if t == nil {
		rs.leaderReads.Add(1)
		return rs.leader.Get(key)
	}
	resp, err := t.c.Do(Request{Op: OpGetSeq, Key: key, MinSeq: rs.floor.For(key)})
	if err == nil {
		switch resp.Status {
		case StatusOK:
			t.gets.Add(1)
			return resp.Val, true, nil
		case StatusMiss:
			t.gets.Add(1)
			return 0, false, nil
		case StatusLagging:
			t.lagging.Add(1)
			rs.staleRefused.Add(1)
		default:
			t.errs.Add(1)
		}
	} else {
		t.errs.Add(1)
	}
	rs.leaderFalls.Add(1)
	rs.leaderReads.Add(1)
	return rs.leader.Get(key)
}

// Scan fetches one page of [lo, hi) from a follower (scans carry no
// staleness bound — range reads accept the follower's applied state),
// falling back to the leader on failure.
func (rs *ReplicaSet) Scan(lo, hi int64, limit int, token []byte) ([]query.KV, []byte, error) {
	t := rs.pick()
	if t == nil {
		rs.leaderReads.Add(1)
		return rs.leader.Scan(lo, hi, limit, token)
	}
	ents, next, err := t.c.Scan(lo, hi, limit, token)
	if err == nil {
		t.scans.Add(1)
		return ents, next, nil
	}
	t.errs.Add(1)
	rs.leaderFalls.Add(1)
	rs.leaderReads.Add(1)
	return rs.leader.Scan(lo, hi, limit, token)
}

// ReplicaSetStats summarizes the set's routing.
type ReplicaSetStats struct {
	LeaderReads  int64 // reads the leader served
	LeaderFalls  int64 // reads that started on a replica and fell back
	StaleRefused int64 // StatusLagging refusals (each fell back, none served stale)
	Targets      []ReplicaTargetStats
}

// Stats snapshots the routing counters.
func (rs *ReplicaSet) Stats() ReplicaSetStats {
	st := ReplicaSetStats{
		LeaderReads:  rs.leaderReads.Load(),
		LeaderFalls:  rs.leaderFalls.Load(),
		StaleRefused: rs.staleRefused.Load(),
	}
	for _, t := range rs.replicas {
		st.Targets = append(st.Targets, ReplicaTargetStats{
			Addr:    t.addr,
			Gets:    t.gets.Load(),
			Scans:   t.scans.Load(),
			Errors:  t.errs.Load(),
			Lagging: t.lagging.Load(),
		})
	}
	return st
}

// Close tears down every connection.
func (rs *ReplicaSet) Close() error {
	err := rs.leader.Close()
	for _, t := range rs.replicas {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
