package server

import (
	"math"
	"sync/atomic"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/metrics"
	"btreeperf/internal/query"
	"btreeperf/internal/query/index"
)

// shard is one independent serving partition: its own storage engine,
// tree telemetry probe, overload governor, operation counters, scrape
// windows, and if durable its commit pipeline. The paper's queueing model
// caps a single tree's throughput at root ρ_w = .5; partitioning the
// keyspace across N shards gives N independent root locks, so the model's
// per-tree saturation analysis applies shard by shard and aggregate
// throughput scales with the shard count until the hardware runs out.
type shard struct {
	id    int
	srv   *Server
	eng   Engine
	tree  *cbtree.Tree       // nil unless the shard's engine is the in-memory one
	probe *metrics.TreeProbe // nil unless tree is set: only its locks report
	gov   *governor

	// The commit pipeline of a shard whose engine has a durability point
	// (see commitLoop); nil or unused on a mem shard. Every shard's batches
	// run on the connection that read them (see dispatch).
	commitq  chan *batch  // connection → committer, in hand-off order
	ackq     chan *batch  // committer → ack stage; nil unless Config.ReplAcks > 0
	applying atomic.Int32 // connections between pickup and hand-off

	// idx is the shard's secondary index (value → primary keys); nil
	// unless the server was built with Config.Index.
	idx *index.Index

	opLat      metrics.Hist // per-op service time, pickup → release
	commitWait metrics.Hist // per mutating batch, hand-off → release

	// opLat's count and sum over the batches that finished while the
	// probe listened: the work the lock telemetry was taken over, which
	// is what the model's prediction from that telemetry is to be set
	// against.
	heardNs  atomic.Int64
	heardOps atomic.Int64

	// ctr holds the shard's event counters, indexed by the counter enum.
	ctr [nCounters]atomic.Int64

	metricsWin windowState // /metrics scrape window
	modelWin   windowState // /debug/model scrape window
}

// counter indexes a shard's event counters. A counter exists in three
// places only: its constant here, the sites that tally it, and its row in
// the telemetry table (telemetry.go) — a shard holds them as one array of
// atomics, a connection tallies a batch into a plain array of the same
// shape, and a scrape copies the array once.
type counter int

const (
	// Op kinds: every executed request lands in exactly one of these, so
	// their sum is the number of ops a batch ran.
	cGets counter = iota
	cPuts
	cDels
	cPings // meta ops (ping, the OpSeqs sequence probe): counted, not reported by name
	cBad   // unknown opcodes and bad query requests
	// Query pages served with this shard as the merge home. A scan op is
	// one page; keys per page follow from the entry counters below.
	cScans
	cSeeks
	cLookups
	cNotLeader // mutations refused with StatusNotLeader (follower role)

	// What happened to ops already counted above.
	cScanKeys   // entries returned on scan pages, plus seek hits
	cLookupKeys // entries returned on lookup pages
	cUnavail    // requests answered StatusUnavail
	cLagging    // getseqs refused with StatusLagging (staleness floor unmet)

	// Counted outside the per-op tally.
	cCommitFails  // batches whose group commit failed
	cAckTimeouts  // batches that missed the semi-sync follower-ack barrier
	cShedOverload // updates shed with StatusOverload; the governor acts on the shard whose root is saturated, not globally
	// The commit pipeline (durable shards only).
	cCommitGroups  // groups the committer synced: one eng.Commit each
	cCommitBatches // batches with a mutation in those groups
	nCounters

	nOpKinds = cNotLeader + 1
)

// opTally is a connection-local count of the events of one batch, flushed
// to the shard's counters once per batch: per-op atomic adds from every
// connection bounce the counters' cache lines and were a measurable share
// of service time.
type opTally [nCounters]int64

// ops is the number of requests tallied.
func (t *opTally) ops() (n int64) {
	for _, v := range t[:nOpKinds] {
		n += v
	}
	return n
}

// shardIndex routes a key to a shard with a full-avalanche mixer
// (splitmix64 finalizer), so adjacent or patterned key streams spread
// evenly. It is a pure function of (key, n): the same key always lands
// on the same shard, across restarts and across processes — btload's
// audit-verify and the crash harness depend on that.
func shardIndex(key int64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// ReadFloor is a replication-aware client's per-shard read floor: the
// highest durable sequence the leader has acknowledged to it, one slot per
// leader shard (make(ReadFloor, n)). Observe raises a key's shard to the
// sequence stamped on an acked put or del; For is the MinSeq a
// bounded-staleness get of that key carries (the OpGetSeq contract), so no
// follower serves the client a state older than its own acknowledged
// writes. The slot is shardIndex's, so the floor routes a key exactly as
// the leader does: stable across restarts and processes. Safe for
// concurrent use.
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

// shardIdx routes a key to this server's shard index.
func (s *Server) shardIdx(key int64) int32 {
	return int32(shardIndex(key, len(s.shards)))
}

// locates reports whether op on this shard is located with the rest of
// its batch (Server.exec): a point op on an in-memory OLC tree.
func (sh *shard) locates(op byte) bool {
	switch op {
	case OpGet, OpGetSeq, OpPut, OpDel:
		return sh.tree != nil && sh.tree.Algorithm() == cbtree.OLC
	}
	return false
}

// get, put and del apply one point op to the shard's engine, from h, its
// hint, when it was located (else h is nil). put and del go through the
// secondary index when there is one: the index wraps the tree op so the
// pair commits as one per-key atomic step (see internal/query/index).
func (sh *shard) get(key int64, h *cbtree.Hint) (uint64, bool, error) {
	if h == nil {
		return sh.eng.Get(key)
	}
	v, ok := sh.tree.SearchAt(key, h)
	return v, ok, nil
}

func (sh *shard) put(key int64, val uint64, h *cbtree.Hint) (bool, error) {
	apply := func() (bool, error) { return sh.tree.InsertAt(key, val, h), nil }
	if h == nil {
		apply = func() (bool, error) { return sh.eng.Put(key, val) }
	}
	if sh.idx == nil {
		return apply()
	}
	return sh.idx.Put(key, val, apply)
}

func (sh *shard) del(key int64, h *cbtree.Hint) (bool, error) {
	apply := func() (bool, error) { return sh.tree.DeleteAt(key, h), nil }
	if h == nil {
		apply = func() (bool, error) { return sh.eng.Del(key) }
	}
	if sh.idx == nil {
		return apply()
	}
	return sh.idx.Del(key, apply)
}

// scanAll pages through the engine in key order, handing fn each
// non-empty page; the page's storage is reused for the next. fn may
// delete the keys it was handed.
func (sh *shard) scanAll(fn func([]query.KV) error) error {
	const page = 1024
	cursor := int64(math.MinInt64)
	buf := make([]query.KV, 0, page)
	for {
		ents, more, err := sh.eng.Scan(cursor, math.MaxInt64, page, buf[:0])
		if err != nil {
			return err
		}
		if len(ents) == 0 {
			return nil
		}
		if err := fn(ents); err != nil {
			return err
		}
		if !more {
			return nil
		}
		cursor = ents[len(ents)-1].Key + 1
	}
}

// release reports one executed batch — ns from its pickup to now, tally
// its events — and retires the shard's completion, which hands the batch
// to its connection's writer once every involved shard has done the same.
func (sh *shard) release(bt *batch, tally *opTally, ns int64) {
	if n := tally.ops(); n > 0 {
		sh.opLat.ObserveN(ns, n)
		if sh.probe != nil && sh.probe.Listening() {
			sh.heardNs.Add(ns)
			sh.heardOps.Add(n)
		}
		for c, v := range tally {
			if v > 0 {
				sh.ctr[c].Add(v)
			}
		}
	}
	bt.completeOne()
}

// The commit pipeline. A shard whose engine has a durability point runs
// one committer (and, under semi-sync replication, one ack stage behind
// it); batches cross it in the order
//
//	connection → commitq → committer → [ackq → ack stage] → completeOne → writer
//
// and the ack contract is: no mutation's OK leaves the last stage before
// the fsync that covers its oplog record has returned, nor — with
// Config.ReplAcks > 0 — before that many followers have acked a sequence
// at or past it. The connections apply their next batches while the
// committer sits in the fsync, and one fsync covers every batch handed off
// since the last.

// commitLoop is the shard's committer. It takes everything on the commit
// queue as one group, makes the group durable with a single eng.Commit —
// the batches' records were all appended before their hand-off, so the
// one fsync covers them — and passes the group on in hand-off order with
// its verdict written on each batch's leg. A group in which nothing
// mutated is passed on without a commit: every batch of a durable shard
// comes this way, since a connection cannot know before it applies a
// batch whether it will have something to sync.
//
// Before it syncs a group that needs it, the committer also waits for the
// siblings: while a connection is mid-apply on the shard (applying > 0) it
// blocks on the queue for that hand-off, once per connection that was
// mid-apply when the group opened at most. Two batches of one burst finish
// tens of microseconds apart; without the wait the first starts an fsync
// alone and the second sits a full fsync behind it, and the fsync chain,
// not the tree, sets the shard's throughput. A batch begun after the group
// opened goes to the next group, so its apply overlaps this group's fsync.
// The wait is for an event that is certain to come — a counted connection
// has its send ahead of it — so it needs no clock, and it is bounded by
// one batch's apply time.
func (sh *shard) commitLoop() {
	s := sh.srv
	if sh.ackq != nil {
		defer close(sh.ackq)
	}
	// A group is a full queue and one more batch per core (see New).
	group := make([]*batch, 0, cap(sh.commitq)*5/4)
	var n uint32
	for bt := range sh.commitq {
		group = append(group[:0], bt)
		mutating := 0 // batches of the group with a put or del to sync
		if bt.legs[sh.id].mutated() {
			mutating++
		}
		waits := sh.applying.Load()
	gather:
		for len(group) < cap(group) {
			var next *batch
			var ok bool
			select {
			case next, ok = <-sh.commitq:
			default:
				if waits <= 0 || mutating == 0 || sh.applying.Load() == 0 {
					break gather
				}
				waits--
				next, ok = <-sh.commitq
			}
			if !ok {
				break // closed: Serve is draining and the connections are gone
			}
			group = append(group, next)
			if next.legs[sh.id].mutated() {
				mutating++
			}
		}

		failed, seq := false, int64(0)
		if mutating > 0 {
			sh.ctr[cCommitGroups].Add(1)
			sh.ctr[cCommitBatches].Add(int64(mutating))
			if err := sh.eng.Commit(); err != nil {
				// The engine is poisoned (fail stop); nothing of the group
				// may be acknowledged.
				failed = true
			} else if hub := s.repl.hub.Load(); hub != nil {
				seq = sh.eng.(seqEngine).DurableSeq()
				hub.Poke()
			}
		}
		n++
		for _, bt := range group {
			l := &bt.legs[sh.id]
			l.group, l.failed, l.seq = n, failed, seq
			if sh.ackq != nil {
				sh.ackq <- bt
			} else {
				sh.settle(bt, true)
			}
		}
	}
}

// ackLoop is the semi-sync stage: it holds each committed group for the
// follower-ack barrier — one WaitAcked on the group's durable sequence,
// which is at or past every record of the group — and settles its batches.
// It is a stage of its own so that the wait for group n's followers (up to
// ReplAckTimeout) overlaps group n+1's fsync rather than standing in front
// of it.
func (sh *shard) ackLoop() {
	s := sh.srv
	var group uint32
	acked := true
	for bt := range sh.ackq {
		if l := &bt.legs[sh.id]; l.seq != 0 && l.group != group {
			group = l.group
			acked = s.repl.hub.Load().WaitAcked(sh.id, l.seq, s.cfg.ReplAcks, s.cfg.ReplAckTimeout)
		}
		sh.settle(bt, acked)
	}
}

// mutated reports whether the batch's visit to the shard executed a put
// or a del: whether it has anything for a commit to cover.
func (l *leg) mutated() bool { return l.tally[cPuts]+l.tally[cDels] > 0 }

// settle is the pipeline's last step for one batch: write the group's
// verdict into the responses of the batch's mutations and release it.
// After a failed commit every mutation answers StatusUnavail, whatever it
// answered before — rewriting them closes the last window where an ack
// could outrun the disk. On a replication leader each acknowledged
// mutation is stamped with the shard's durable sequence (wire: the value
// field of the put/del response), the client's staleness floor for
// bounded-staleness follower reads — or, when the follower-ack barrier
// was missed, answers StatusBusy: the write is durable here but its
// follower redundancy was not confirmed in time, and Busy is the honest
// retryable answer (the client must treat the op as possibly applied, the
// standard semi-sync ambiguity; puts and dels are idempotent, so a retry
// converges).
func (sh *shard) settle(bt *batch, acked bool) {
	l := &bt.legs[sh.id]
	now := time.Now()
	if l.mutated() {
		sh.commitWait.Observe(now.Sub(l.handoff).Nanoseconds())
		switch {
		case l.failed:
			sh.ctr[cCommitFails].Add(1)
			for i := range bt.jobs {
				if j := &bt.jobs[i]; j.mutationOf(sh.id) {
					j.resp = Response{Status: StatusUnavail}
				}
			}
		case l.seq != 0:
			if !acked {
				sh.ctr[cAckTimeouts].Add(1)
			}
			for i := range bt.jobs {
				j := &bt.jobs[i]
				if !j.mutationOf(sh.id) || (j.resp.Status != StatusOK && j.resp.Status != StatusMiss) {
					continue
				}
				if !acked {
					j.resp = Response{Status: StatusBusy}
					continue
				}
				j.resp.HasVal = true
				j.resp.Val = uint64(l.seq)
			}
		}
	}
	sh.release(bt, &l.tally, now.Sub(l.pickup).Nanoseconds())
}

// mutationOf reports whether the job is a put or del executed on the given
// shard.
func (j *job) mutationOf(shard int) bool {
	return !j.skip && int(j.shard) == shard && (j.req.Op == OpPut || j.req.Op == OpDel)
}
