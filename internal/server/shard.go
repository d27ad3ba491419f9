package server

import (
	"sync/atomic"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/metrics"
	"btreeperf/internal/query/index"
	"btreeperf/internal/repl"
)

// shard is one independent serving partition: its own storage engine,
// tree telemetry probe, worker queue, overload governor, operation
// counters, and scrape windows. The paper's queueing model caps a single
// tree's throughput at root ρ_w = .5; partitioning the keyspace across N
// shards gives N independent root locks, so the model's per-tree
// saturation analysis applies shard by shard and aggregate throughput
// scales with the shard count until the hardware runs out.
type shard struct {
	id    int
	srv   *Server
	eng   Engine
	tree  *cbtree.Tree       // nil unless the shard's engine is the in-memory one
	probe *metrics.TreeProbe // nil unless tree is set: only its locks report
	work  chan *batch
	gov   *governor

	// idx is the shard's secondary index (value → primary keys); nil
	// unless the server was built with Config.Index.
	idx *index.Index

	opLat   metrics.Hist // per-op tree service time
	opNsSum atomic.Int64
	opCount atomic.Int64

	// The same two sums over the batches that finished while the probe
	// listened: the work the lock telemetry was taken over, which is what
	// the model's prediction from that telemetry is to be set against.
	heardNs  atomic.Int64
	heardOps atomic.Int64

	gets  atomic.Int64
	puts  atomic.Int64
	dels  atomic.Int64
	opBad atomic.Int64 // unknown opcodes and bad query requests

	// Query counters: pages served with this shard as the merge home,
	// and entries returned on those pages.
	scans      atomic.Int64
	seeks      atomic.Int64
	lookups    atomic.Int64
	scanKeys   atomic.Int64
	lookupKeys atomic.Int64

	// Durability counters.
	commitFails atomic.Int64 // batches whose group commit failed
	unavail     atomic.Int64 // requests answered StatusUnavail

	// Replication counters.
	ackTimeouts atomic.Int64 // batches that missed the semi-sync follower-ack barrier
	notLeader   atomic.Int64 // mutations refused with StatusNotLeader (follower role)
	lagging     atomic.Int64 // getseqs refused with StatusLagging (staleness floor unmet)

	// Shed counters (per shard: overload shedding acts on the shard
	// whose root is saturated, not globally).
	shedOverload atomic.Int64 // updates shed with StatusOverload (governor)
	shedBusy     atomic.Int64 // requests shed with StatusBusy (queue full)

	metricsWin windowState // /metrics scrape window
	modelWin   windowState // /debug/model scrape window
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

// shardIdx routes a key to this server's shard index.
func (s *Server) shardIdx(key int64) int32 {
	return int32(shardIndex(key, len(s.shards)))
}

// run is one worker of this shard's pool: it executes the shard's slice
// of each batch, group-commits the shard's engine once per batch that
// mutated it, and retires the shard's completion. Jobs of other shards
// in the same batch are skipped — slab entries are disjoint across
// shards, so concurrent shard workers never touch the same job.
func (sh *shard) run() {
	s := sh.srv
	// Telemetry is tallied locally and flushed once per batch: per-op
	// atomic adds from every worker bounce the counters' cache lines and
	// were a measurable share of service time.
	var w worker
	tally := &w.tally
	for bt := range sh.work {
		*tally = opTally{}
		w.arena = &bt.arenas[sh.id]
		t0 := time.Now()
		for i := range bt.jobs {
			j := &bt.jobs[i]
			if j.skip || int(j.shard) != sh.id {
				continue
			}
			j.resp = s.apply(sh, j.req, &w)
		}
		if tally.puts+tally.dels > 0 {
			// Group commit: one engine fsync covers every mutation this
			// shard executed from the batch; their OK responses are
			// withheld until it returns. On failure nothing is
			// acknowledged — the engine is poisoned (fail stop), so
			// rewriting the shard's mutation responses to StatusUnavail
			// closes the last window where an ack could outrun the disk.
			if err := sh.eng.Commit(); err != nil {
				sh.commitFails.Add(1)
				for i := range bt.jobs {
					j := &bt.jobs[i]
					if !j.skip && int(j.shard) == sh.id && (j.req.Op == OpPut || j.req.Op == OpDel) {
						j.resp = Response{Status: StatusUnavail}
					}
				}
			} else if hub := s.Hub(); hub != nil {
				sh.replCommit(bt, hub)
			}
		}
		if n := tally.gets + tally.puts + tally.dels + tally.pings + tally.bad +
			tally.scans + tally.seeks + tally.lookups + tally.notLeader; n > 0 {
			ns := time.Since(t0).Nanoseconds()
			// The histogram records the batch's amortized per-op service
			// time for each op (exact in the mean, batch-smoothed in the
			// tails).
			sh.opLat.ObserveN(ns/n, n)
			sh.opNsSum.Add(ns)
			sh.opCount.Add(n)
			if sh.probe != nil && sh.probe.Listening() {
				sh.heardNs.Add(ns)
				sh.heardOps.Add(n)
			}
			if tally.gets > 0 {
				sh.gets.Add(tally.gets)
			}
			if tally.puts > 0 {
				sh.puts.Add(tally.puts)
			}
			if tally.dels > 0 {
				sh.dels.Add(tally.dels)
			}
			if tally.bad > 0 {
				sh.opBad.Add(tally.bad)
			}
			if tally.unavail > 0 {
				sh.unavail.Add(tally.unavail)
			}
			if tally.scans > 0 {
				sh.scans.Add(tally.scans)
			}
			if tally.seeks > 0 {
				sh.seeks.Add(tally.seeks)
			}
			if tally.scanKeys > 0 { // scan-page entries plus seek hits
				sh.scanKeys.Add(tally.scanKeys)
			}
			if tally.lookups > 0 {
				sh.lookups.Add(tally.lookups)
			}
			if tally.lookupKeys > 0 {
				sh.lookupKeys.Add(tally.lookupKeys)
			}
			if tally.notLeader > 0 {
				sh.notLeader.Add(tally.notLeader)
			}
			if tally.lagging > 0 {
				sh.lagging.Add(tally.lagging)
			}
		}
		bt.completeOne()
	}
}

// replCommit is the leader-side replication epilogue of a batch whose
// group commit succeeded: wake the hub's shippers, hold the batch for
// the semi-sync follower-ack barrier when one is configured, and stamp
// each acknowledged mutation with the shard's durable sequence (wire:
// the value field of the put/del response) — the client's staleness
// floor for bounded-staleness follower reads.
func (sh *shard) replCommit(bt *batch, hub *repl.Hub) {
	s := sh.srv
	seq := sh.eng.(seqEngine).DurableSeq()
	hub.Poke()
	acked := true
	if k := s.cfg.ReplAcks; k > 0 {
		if !hub.WaitAcked(sh.id, seq, k, s.cfg.ReplAckTimeout) {
			// The write is durable here but its follower redundancy was
			// not confirmed in time. Busy is the honest retryable answer:
			// the client must treat the op as possibly applied (standard
			// semi-sync ambiguity) — puts and dels are idempotent, so a
			// retry converges.
			acked = false
			sh.ackTimeouts.Add(1)
		}
	}
	for i := range bt.jobs {
		j := &bt.jobs[i]
		if j.skip || int(j.shard) != sh.id || (j.req.Op != OpPut && j.req.Op != OpDel) {
			continue
		}
		if j.resp.Status != StatusOK && j.resp.Status != StatusMiss {
			continue
		}
		if !acked {
			j.resp = Response{Status: StatusBusy}
			continue
		}
		j.resp.HasVal = true
		j.resp.Val = uint64(seq)
	}
}
