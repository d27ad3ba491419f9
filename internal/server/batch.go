package server

import (
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/query"
)

// The batched serving fast path.
//
// The serving scaffolding is amortized across pipeline depth: the
// connection reader decodes every frame already buffered on the wire into
// one pooled batch (a slab of jobs, no per-request channels), the batch
// is executed as a single unit in slab order, completion is one token on
// the batch's reused ready channel, and the writer coalesces the whole
// batch's responses into one buffered write. In the steady state nothing on this path allocates:
// batches, their job slabs and the memory their scan pages live in are
// recycled through a sync.Pool.
//
// The reader runs the batch, every shard's jobs in one pass, so a
// connection's batches apply one at a time. Each involved shard retires
// one completion — a mem shard at once, a durable one from its commit
// pipeline — and the writer's token fires when the last shard's has.

// job is one request in flight inside a batch. Requests whose response
// was decided at admission time (governor shedding) carry skip=true and
// are not executed.
type job struct {
	req   Request
	resp  Response
	shard int32 // owning shard, stamped by the connection reader
	skip  bool
}

// batch is one reader→writer unit of pipelined requests, in request
// order. The ready channel (capacity 1, reused across the batch's pooled
// lifetimes) carries the single completion token to the connection
// writer once every armed completion has been retired.
type batch struct {
	jobs    []job
	nexec   int         // jobs to execute (len(jobs) minus skips)
	nexecSh []int32     // per-shard executable counts; len = server shard count
	arenas  []pageArena // per-shard page memory; len = server shard count
	legs    []leg       // per-shard commit-pipeline state; len = server shard count
	pending atomic.Int32
	ready   chan struct{}
}

// leg is what the connection leaves on a batch for a durable shard's
// stages after it (see shard.commitLoop): the batch outlives the apply, so
// the pickup stamp and the tally the release step reports cross the
// hand-off on the batch itself. Like the jobs, a leg has one owner at a
// time — connection, then committer, then ack stage — and each channel
// send publishes it to the next. A mem batch never writes its legs.
type leg struct {
	pickup  time.Time // the start of the shard's share of the apply
	handoff time.Time // the connection put the batch on the commit queue
	tally   opTally

	// The committer's verdict on the batch's group.
	group  uint32 // the shard's group number: batches of one fsync share it
	failed bool   // the group's commit failed: no mutation may be acknowledged
	seq    int64  // durable sequence to stamp acknowledged mutations with; 0 when not leading
}

// pageArena is the memory a batch's query pages on one shard are written
// into: Response.Entries and Response.Token of the page-shaped
// responses are sub-slices of it, capped at their own length so that no
// later append can reach them. It lives and dies with the batch — emptied
// by getBatch, filled by the connection that executes the batch, read by
// the connection writer once the completion token (the edge that already
// publishes job.resp) has arrived — and keeps the capacity it grew to
// across the batch's pooled lives. A page
// that outgrows the arena moves it to a larger array; the pages already
// cut keep the old one, which nothing writes again.
type pageArena struct {
	ents []query.KV
	tok  []byte
}

var batchPool = sync.Pool{
	New: func() any {
		return &batch{ready: make(chan struct{}, 1)}
	},
}

// getBatch returns an empty batch sized for nShards; its job slab,
// shard-count slab, legs and page arenas keep the capacity they grew to in
// earlier lives, so steady-state accumulation never allocates.
func getBatch(nShards int) *batch {
	b := batchPool.Get().(*batch)
	b.reset(nShards)
	return b
}

// reset empties b for a new life on an nShards server.
func (b *batch) reset(nShards int) {
	b.jobs = b.jobs[:0]
	b.nexec = 0
	if cap(b.nexecSh) < nShards {
		b.nexecSh = make([]int32, nShards)
		b.arenas = make([]pageArena, nShards)
		b.legs = make([]leg, nShards)
	} else {
		b.nexecSh = b.nexecSh[:nShards]
		b.arenas = b.arenas[:nShards]
		b.legs = b.legs[:nShards]
		for i := range b.nexecSh {
			b.nexecSh[i] = 0
			b.arenas[i].ents = b.arenas[i].ents[:0]
			b.arenas[i].tok = b.arenas[i].tok[:0]
		}
	}
	b.pending.Store(0)
}

// putBatch recycles b. The caller must hold the completion token (have
// returned from wait), so nothing can still touch the slab.
func putBatch(b *batch) { batchPool.Put(b) }

// add appends one zeroed job slot and returns it for in-place decoding.
func (b *batch) add() *job {
	if n := len(b.jobs); n < cap(b.jobs) {
		b.jobs = b.jobs[:n+1]
		b.jobs[n] = job{}
	} else {
		b.jobs = append(b.jobs, job{})
	}
	return &b.jobs[len(b.jobs)-1]
}

// arm sets how many completions the batch waits for: one per shard it
// was dispatched to (or one, for a batch answered on the admission
// path). Must be called before the first dispatch.
func (b *batch) arm(n int32) { b.pending.Store(n) }

// completeOne retires one armed completion; the last one hands the batch
// to its writer. The atomic add is the synchronization edge that makes
// every shard's response writes visible to the writer.
func (b *batch) completeOne() {
	if b.pending.Add(-1) == 0 {
		b.ready <- struct{}{}
	}
}

// wait blocks until the batch's responses are all in place.
func (b *batch) wait() { <-b.ready }
