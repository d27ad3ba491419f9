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

	// ctr holds the shard's event counters, indexed by the counter enum.
	ctr [nCounters]atomic.Int64

	metricsWin windowState // /metrics scrape window
	modelWin   windowState // /debug/model scrape window
}

// counter indexes a shard's event counters. A counter exists in three
// places only: its constant here, the sites that tally it, and its row in
// the telemetry table (telemetry.go) — a shard holds them as one array of
// atomics, a worker tallies a batch into a plain array of the same shape,
// and a scrape copies the array once.
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
	cShedBusy     // requests shed with StatusBusy (queue full)
	nCounters

	nOpKinds = cNotLeader + 1
)

// opTally is a worker-local count of the events of one batch, flushed to
// the shard's counters once per batch: per-op atomic adds from every
// worker bounce the counters' cache lines and were a measurable share of
// service time.
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
		if tally[cPuts]+tally[cDels] > 0 {
			// Group commit: one engine fsync covers every mutation this
			// shard executed from the batch; their OK responses are
			// withheld until it returns. On failure nothing is
			// acknowledged — the engine is poisoned (fail stop), so
			// rewriting the shard's mutation responses to StatusUnavail
			// closes the last window where an ack could outrun the disk.
			if err := sh.eng.Commit(); err != nil {
				sh.ctr[cCommitFails].Add(1)
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
		if n := tally.ops(); n > 0 {
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
			for c, v := range tally {
				if v > 0 {
					sh.ctr[c].Add(v)
				}
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
			sh.ctr[cAckTimeouts].Add(1)
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
