package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
	"btreeperf/internal/query"
	"btreeperf/internal/query/index"
)

// Default self-defense settings (Config zero values resolve to these;
// a negative duration disables that guard).
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// DefaultMaxBatch is the default cap on how many pipelined requests the
// connection reader coalesces into one batch. It trades per-batch
// amortization (bigger is cheaper per op) against how long a batch's first
// request waits behind its last before the batch's responses are written.
const DefaultMaxBatch = 32

// Config parameterizes a Server.
type Config struct {
	Algorithm cbtree.Algorithm
	Capacity  int // node capacity; default 64
	Shards    int // keyspace shards, each an independent engine; default 1
	Depth     int // per-connection pipeline bound; default 128
	Prefill   int // keys inserted before serving; default 0
	MaxBatch  int // max requests per batch; default DefaultMaxBatch

	// Self-defense. Zero values resolve to the Default* constants;
	// negative durations disable the guard.
	MaxConns     int           // concurrent connection cap; 0 = unlimited
	IdleTimeout  time.Duration // per-read deadline: a conn that sends no complete frame within it is closed
	WriteTimeout time.Duration // per-write deadline: a peer that won't drain responses is closed

	// Index enables the secondary index (value → primary keys, one per
	// shard): Put/Del maintain it transactionally per key, OpLookup
	// queries it. Built from the engines' contents in New (so a disk
	// engine's recovered state is indexed before serving); without it
	// OpLookup answers StatusBadRequest.
	Index bool

	// Governor configures the model-driven overload governor; each shard
	// runs its own instance against its own root ρ_w. See GovernorConfig.
	Governor GovernorConfig

	// Engine selects the storage engine of a single-shard server. Nil
	// builds the default in-memory engine from Algorithm/Capacity; a
	// *DiskEngine makes the server durable: each batch's mutations are
	// acknowledged only after the group-commit fsync that covers them
	// returns.
	// Algorithm and Capacity are ignored when an Engine is supplied.
	Engine Engine

	// Engines supplies one engine per shard and overrides both Engine
	// and Shards (the shard count becomes len(Engines)). The keyspace is
	// hash-partitioned across them; every engine must be the same kind.
	Engines []Engine

	// ReplAcks, on a replication leader, is the semi-synchronous
	// durability requirement: each batch's mutations are acknowledged
	// only after this many followers have applied and acked up to the
	// durable sequence of the batch's commit group. Zero (the default)
	// acknowledges on local durability alone — replication stays
	// asynchronous.
	ReplAcks int

	// ReplAckTimeout bounds the semi-sync wait. A batch that misses it
	// has its mutations answered StatusBusy: the write IS durable on the
	// leader (the client must treat it as possibly applied, the standard
	// semi-sync ambiguity), but the promised follower redundancy was not
	// confirmed. Default 2s.
	ReplAckTimeout time.Duration
}

func (c *Config) fill() {
	if c.Capacity == 0 {
		c.Capacity = 64
	}
	if len(c.Engines) > 0 {
		c.Shards = len(c.Engines)
	} else if c.Engine != nil {
		c.Shards = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Depth <= 0 {
		c.Depth = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.ReplAckTimeout == 0 {
		c.ReplAckTimeout = 2 * time.Second
	}
	c.Governor.fill()
}

// Server owns the shard set — each shard an independent engine with its
// own telemetry probe and overload governor, or if durable its commit
// pipeline — plus the connection layer that routes each request's key to
// its shard. Create one with New, serve the binary protocol with Serve,
// and mount Handler on an HTTP listener for /metrics and /debug/model. A
// single-shard server behaves exactly like the pre-sharding one.
type Server struct {
	cfg    Config
	shards []*shard

	start    time.Time
	badReqs  atomic.Int64 // malformed frames (wire-level; op-level bads are per shard)
	connsNow atomic.Int64

	// Self-defense counters (connection-level; shed counters are per
	// shard).
	connRejects   atomic.Int64 // conns refused with StatusBusy at the cap
	readTimeouts  atomic.Int64 // conns reaped by the idle/read deadline
	writeTimeouts atomic.Int64 // conns reaped by the write deadline

	stopped atomic.Bool

	// repl is the server's replication role. Zero value = unreplicated.
	// See repl.go.
	repl replState

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// lifeMu orders engine shutdown against the telemetry handlers:
	// handlers hold the read side for the duration of a scrape, Close
	// holds the write side while closing the engines, and closed makes
	// every later scrape answer without touching an engine.
	lifeMu sync.RWMutex
	closed bool
}

// New builds the shard set (prefilled if requested), instruments every
// in-memory node lock with its shard's per-level telemetry probe, and
// gives every durable shard its commit pipeline: the engine decides, not a
// flag (see dispatch).
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		conns: make(map[net.Conn]struct{}),
	}
	// A durable shard's queues are sized by its share of the cores, c: the
	// commit queue holds 4c batches; a group (a full queue and one more
	// batch per core) and the ack queue hold 5c.
	perCore := (runtime.GOMAXPROCS(0) + cfg.Shards - 1) / cfg.Shards
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{id: i, srv: s}
		switch {
		case len(cfg.Engines) > 0:
			sh.eng = cfg.Engines[i]
		case cfg.Engine != nil:
			sh.eng = cfg.Engine
		default:
			sh.tree = cbtree.New(cfg.Capacity, cfg.Algorithm)
			sh.eng = &memEngine{t: sh.tree}
		}
		if sh.eng.Durable() {
			// Under a device slower than the tree the commit queue is where
			// a group forms. A full queue blocks the connections' sends,
			// which is what bounds the replay debt when DiskEngine.Commit
			// holds the committer at 2× the checkpoint threshold: past the
			// group in the committer's hands only a full queue and one batch
			// per blocked connection can still append, so the debt peaks
			// below 2×CheckpointOps + (5c + 4c + connections)×MaxBatch
			// mutations. It grows with the connection count, which MaxConns
			// caps.
			sh.commitq = make(chan *batch, 4*perCore)
			if cfg.ReplAcks > 0 {
				// One whole group fits, so the committer is back at its
				// queue — and the next fsync — while the ack stage still
				// waits for this group's followers.
				sh.ackq = make(chan *batch, 5*perCore)
			}
		}
		gov := cfg.Governor
		if sh.tree == nil {
			// No lock probe, no root ρ_w to govern by: the shard reports
			// its governor disabled, and Serve starts none.
			gov.Disabled = true
		}
		sh.gov = newGovernor(sh, gov)
		if cfg.Index {
			sh.idx = index.New()
		}
		s.shards[i] = sh
	}
	for i := 0; i < cfg.Prefill; i++ {
		// A simple odd multiplier scatters the prefill across the key
		// space deterministically; the router then scatters the keys
		// across shards.
		k := int64(uint64(i)*2654435761) % (1 << 40)
		sh := s.shards[s.shardIdx(k)]
		if _, err := sh.eng.Put(k, uint64(i)); err != nil {
			break // the engine is poisoned; Serve will answer StatusUnavail
		}
	}
	if cfg.Prefill > 0 {
		for _, sh := range s.shards {
			sh.eng.Commit()
		}
	}
	if cfg.Index {
		// Index the engines' current contents — prefill above, and any
		// state a disk engine recovered from its journal — before taking
		// traffic; from here on apply keeps the index in step per key. A
		// scan that fails has poisoned its engine, and lookups answer
		// StatusUnavail while any engine is poisoned.
		_ = s.rebuildIndexes()
	}
	for _, sh := range s.shards {
		if sh.tree != nil {
			probe := metrics.NewTreeProbe()
			sh.probe = probe
			sh.tree.Instrument(func(level int) lock.Probe { return probe.Level(level) })
		}
	}
	return s
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Engine exposes shard 0's storage engine (telemetry, tests). Multi-
// shard servers have one engine per shard; see Len for the merged size.
func (s *Server) Engine() Engine { return s.shards[0].eng }

// Len returns the total key count across all shards.
func (s *Server) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.eng.Len()
	}
	return n
}

// Close ends the replication role (hub, listener and applier stop; a
// follower's applied position is saved) and then releases every shard's
// engine. It must be called only after Serve has returned (connections and
// commit pipelines own the engines while serving); it then excludes the
// telemetry handlers, so a scrape can never race a closing engine. Close is
// idempotent; later scrapes answer 503.
func (s *Server) Close() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.stopRepl()
	var err error
	for _, sh := range s.shards {
		if cerr := sh.eng.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("shard %d: %w", sh.id, cerr))
		}
	}
	return err
}

// closeRead shuts down the read side of a connection so its reader sees
// EOF after draining buffered data. Conns without a CloseRead method
// (tests' pipes) fall back to an immediate read deadline.
func closeRead(c net.Conn) {
	if cr, ok := c.(interface{ CloseRead() error }); ok {
		cr.CloseRead()
		return
	}
	c.SetReadDeadline(time.Now())
}

// Serve accepts connections on ln until ctx is cancelled, then drains: it
// stops accepting, lets every already-read request finish and its
// response be written, and closes the connections. It returns nil on a
// clean drain. Every connection and, after them, every durable shard's
// commit pipeline have exited — and therefore every acknowledged batch's
// group commit has returned — before Serve returns, so Close after Serve
// can never race a final fsync.
//
// Admission is bounded end to end: at most MaxConns connections (excess
// conns get one StatusBusy frame and are closed), at most Depth requests
// pipelined per connection, and on a durable server at most a commit
// queue's worth of batches per shard — a full queue blocks the connection
// that would add to it, so load backs up to its client instead of growing
// unbounded. When a shard's overload governor is shedding, puts and
// deletes routed to it are answered StatusOverload without touching its
// tree.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	govDones := make([]<-chan struct{}, len(s.shards))
	for i, sh := range s.shards {
		govDones[i] = sh.gov.start()
	}

	// The commit pipeline of every durable shard: its committer, and behind
	// that the semi-sync ack stage when one is configured. The committer
	// closes the ack stage's queue when its own runs out.
	var commitWG sync.WaitGroup
	stage := func(loop func()) {
		commitWG.Add(1)
		go func() {
			defer commitWG.Done()
			loop()
		}()
	}
	for _, sh := range s.shards {
		if sh.commitq != nil {
			stage(sh.commitLoop)
		}
		if sh.ackq != nil {
			stage(sh.ackLoop)
		}
	}

	// While serving, each instrumented tree's probe listens in epochs
	// (metrics.TreeProbe.Cycle), so its locks are measured for a small,
	// known share of the time and run unmeasured for the rest.
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	for _, sh := range s.shards {
		if sh.probe != nil {
			probeWG.Add(1)
			go func(p *metrics.TreeProbe) {
				defer probeWG.Done()
				p.Cycle(probeStop)
			}(sh.probe)
		}
	}

	stop := make(chan struct{})
	var closeOnce sync.Once
	shutdown := func() {
		closeOnce.Do(func() {
			s.stopped.Store(true)
			close(stop)
			ln.Close()
			// Shut down the read side of every connection: readers see
			// EOF, finish submitting what they already read, and the
			// writers drain the pipeline.
			s.connMu.Lock()
			for c := range s.conns {
				closeRead(c)
			}
			s.connMu.Unlock()
		})
	}
	go func() {
		<-ctx.Done()
		shutdown()
	}()

	var connWG sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-stop:
			default:
				acceptErr = err
				shutdown()
			}
			break
		}
		if s.cfg.MaxConns > 0 && s.connsNow.Load() >= int64(s.cfg.MaxConns) {
			// Over the cap: tell the peer why before hanging up, without
			// letting a slow peer stall the accept loop.
			s.connRejects.Add(1)
			connWG.Add(1)
			go func(c net.Conn) {
				defer connWG.Done()
				defer c.Close()
				c.SetWriteDeadline(time.Now().Add(2 * time.Second))
				c.Write(AppendResponse(nil, Response{Status: StatusBusy}))
			}(conn)
			continue
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		// A connection accepted while shutdown was iterating the map
		// would miss its CloseRead; re-check now that it is registered.
		select {
		case <-stop:
			closeRead(conn)
		default:
		}
		s.connsNow.Add(1)
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			s.handle(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			s.connsNow.Add(-1)
		}()
	}

	connWG.Wait()
	for _, sh := range s.shards {
		if sh.commitq != nil {
			close(sh.commitq)
		}
	}
	commitWG.Wait()
	for i, sh := range s.shards {
		sh.gov.stop()
		<-govDones[i]
	}
	close(probeStop)
	probeWG.Wait()
	if acceptErr != nil && !errors.Is(acceptErr, net.ErrClosed) {
		return fmt.Errorf("server: accept: %w", acceptErr)
	}
	return nil
}

// handle runs one connection's batched fast path: this goroutine reads
// frames into pooled batches and runs them (see dispatch), a second
// (connWriter) writes responses in request order. The pending channel
// carries batch ordering; the freed channel returns each written batch's
// job count to the reader, bounding the pipeline at Depth requests in
// flight with one channel op per batch instead of one per request.
//
// Batch accumulation never stalls the pipeline: after the (blocking,
// idle-deadlined) read of a batch's first frame, only frames already
// fully buffered join the batch, so a batch is dispatched the moment the
// wire runs dry — a lone request still crosses the server at single-op
// latency.
//
// Self-defense per connection: the first frame of every batch carries an
// IdleTimeout deadline (reaping idle peers and slow-loris
// byte-trickling alike), every response write carries a WriteTimeout
// deadline (reaping peers that pipeline requests but never drain
// responses), and a durable shard's full commit queue blocks the reader
// until the committer takes a group, so the peer's requests back up on
// the wire.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Every in-flight batch holds at least one of the Depth pipeline
	// credits, so Depth slots can never block on either channel.
	pending := make(chan *batch, s.cfg.Depth)
	freed := make(chan int, s.cfg.Depth)
	writerDone := make(chan struct{})
	go s.connWriter(conn, pending, freed, writerDone)

	br := bufio.NewReaderSize(conn, 32<<10)
	buf := make([]byte, MaxPayload)
	credits := s.cfg.Depth
	nShards := len(s.shards)
	w := s.newWorker()
	queryRR := int32(0) // round-robin home shard for cross-shard query ops
	var bt *batch       // accumulating batch; nil between batches
	submit := func() {
		if bt == nil {
			return
		}
		s.dispatch(bt, w)
		pending <- bt
		bt = nil
	}

	for {
		if credits == 0 {
			// Depth requests in flight: dispatch what we have and wait
			// for the writer to retire a batch.
			submit()
			credits += <-freed
			continue
		}
		if bt == nil {
			// Between batches: reclaim retired pipeline credits without
			// blocking, and arm the idle deadline covering the whole
			// next frame, unless the server is draining (drain relies on
			// reading buffered requests out before EOF; see closeRead).
			for {
				select {
				case n := <-freed:
					credits += n
					continue
				default:
				}
				break
			}
			if s.cfg.IdleTimeout > 0 && !s.stopped.Load() {
				conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			}
		} else if len(bt.jobs) >= s.cfg.MaxBatch || !frameBuffered(br) {
			submit()
			continue
		}
		req, err := ReadRequest(br, buf)
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				if !s.stopped.Load() {
					s.readTimeouts.Add(1)
				}
			case err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF):
				s.badReqs.Add(1)
			}
			break
		}
		credits--
		if bt == nil {
			bt = getBatch(nShards)
		}
		j := bt.add()
		j.req = req
		if isQueryOp(req.Op) {
			// Query ops are cross-shard (the connection merges over every
			// shard's engine), so they have no home shard by key:
			// deal them round-robin to spread the merge work. The governor
			// never sheds them — scans are read traffic.
			j.shard = queryRR
			queryRR = (queryRR + 1) % int32(nShards)
			bt.nexec++
			bt.nexecSh[j.shard]++
		} else {
			j.shard = s.shardIdx(req.Key)
			sh := s.shards[j.shard]
			if sh.gov.shedding() && (req.Op == OpPut || req.Op == OpDel) {
				// The shard's governor is shedding update traffic: answer
				// without touching its tree so writers stop driving that
				// root's ρ_w.
				sh.ctr[cShedOverload].Add(1)
				j.skip = true
				j.resp = Response{Status: StatusOverload}
			} else {
				bt.nexec++
				bt.nexecSh[j.shard]++
			}
		}
	}
	submit()
	close(pending)
	<-writerDone
}

// frameBuffered reports whether br already holds one complete frame, so
// decoding it cannot block. A buffered frame header with an invalid
// length reports true: ReadRequest will surface the protocol error.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	n := int(binary.BigEndian.Uint32(hdr))
	if n <= 0 || n > MaxPayload {
		return true
	}
	return br.Buffered() >= 4+n
}

// connWriter writes completed batches' responses in request order, each
// batch coalesced into one buffered write, flushing only when the
// pipeline runs dry. It returns every batch's job count on freed (the
// reader's pipeline credits) and recycles the batch.
func (s *Server) connWriter(conn net.Conn, pending <-chan *batch, freed chan<- int, done chan<- struct{}) {
	defer close(done)
	bail := func(err error) {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.writeTimeouts.Add(1)
		}
		// Kill the conn so the reader unblocks, then keep retiring
		// batches so the reader never starves for pipeline credits.
		conn.Close()
		for bt := range pending {
			bt.wait()
			freed <- len(bt.jobs)
			putBatch(bt)
		}
	}
	bw := bufio.NewWriterSize(conn, 32<<10)
	buf := make([]byte, 0, 1<<10)
	for bt := range pending {
		bt.wait()
		buf = buf[:0]
		for i := range bt.jobs {
			buf = AppendResponse(buf, bt.jobs[i].resp)
		}
		n := len(bt.jobs)
		putBatch(bt)
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		_, err := bw.Write(buf)
		if err == nil && len(pending) == 0 {
			err = bw.Flush()
		}
		freed <- n
		if err != nil {
			bail(err)
			return
		}
	}
	bw.Flush()
}

// dispatch runs a batch on the connection goroutine that decoded it,
// every shard's jobs in one pass, so on every server one connection's
// requests apply in request order. A mem shard's share is released at
// once. A durable shard's goes to its committer: the connection writes the
// shard's leg, lowers its applying count and sends the batch on, then
// goes back to reading — only the connection writer waits for the
// verdict. A batch whose every job was already decided (governor
// shedding) is done at once. The batch is armed with one completion per
// involved shard first, so the writer's token fires only after every
// shard has retired its share. After dispatch the batch belongs to the
// committers and the writer; the caller must not touch it.
func (s *Server) dispatch(bt *batch, w *worker) {
	if bt.nexec == 0 {
		bt.arm(1)
		bt.completeOne()
		return
	}
	involved := int32(0)
	for si, n := range bt.nexecSh {
		if n > 0 {
			involved++
			if sh := s.shards[si]; sh.commitq != nil {
				sh.applying.Add(1)
			}
		}
	}
	bt.arm(involved)
	t0 := time.Now()
	s.exec(bt, w)
	t1 := time.Now()
	ns := t1.Sub(t0).Nanoseconds()
	for si, n := range bt.nexecSh {
		if n == 0 {
			continue
		}
		// The batch's time is shared among its shards by op count, as a
		// shard's among its ops.
		share := ns * int64(n) / int64(bt.nexec)
		sh := s.shards[si]
		if sh.commitq == nil {
			sh.release(bt, &w.tallies[si], share)
			continue
		}
		l := &bt.legs[si]
		l.pickup, l.tally, l.handoff = t1.Add(-time.Duration(share)), w.tallies[si], t1
		// Down before the send, never after: the committer blocks for a
		// sibling only while applying > 0, and that is sound only if every
		// connection it counts still has its send ahead of it. Sends go in
		// shard order, so a connection blocked on one shard's full queue
		// holds no lower shard's count. A full queue blocks the send: the
		// pipeline's backpressure (see New).
		sh.applying.Add(-1)
		sh.commitq <- bt
	}
}

// worker is the private state of a connection reader that executes
// batches: the batch's tallies, one per shard, the page arena of the job
// at hand, the hints of its located ops (see exec) and the working memory
// of the query ops, which keeps the capacity it grew to, so a batch
// allocates nothing once warm.
type worker struct {
	tallies []opTally
	arena   *pageArena
	hints   []cbtree.Hint // MaxBatch of them, a shard's ops contiguous
	next    []int32       // per shard: the hint of its next located op

	cursors []int64
	fetches []query.ShardFetch
	ents    []query.KV // every shard's fetch of one page, back to back
	keys    []int64    // the located keys, then one shard's index postings (lookups)
}

func (s *Server) newWorker() *worker {
	n := len(s.shards)
	return &worker{tallies: make([]opTally, n), hints: make([]cbtree.Hint, s.cfg.MaxBatch), next: make([]int32, n)}
}

// exec applies the batch's jobs in request order, tallying each from zero
// in its shard's slot and cutting its pages from its shard's arena. Each
// shard that locates point ops (shard.locates) first runs their descents
// side by side (cbtree.Tree.Locate), and each then starts from its hint.
// The hints are cleared after, so an idle connection keeps no node alive.
func (s *Server) exec(bt *batch, w *worker) {
	clear(w.tallies)
	keys := w.keys[:0]
	for si, sh := range s.shards {
		if bt.nexecSh[si] > 0 && sh.locates(OpGet) {
			w.next[si] = int32(len(keys))
			for i := range bt.jobs {
				if j := &bt.jobs[i]; int(j.shard) == si && !j.skip && sh.locates(j.req.Op) {
					keys = append(keys, j.req.Key)
				}
			}
			sh.tree.Locate(keys[w.next[si]:], w.hints[w.next[si]:])
		}
	}
	w.keys = keys
	for i := range bt.jobs {
		j := &bt.jobs[i]
		if j.skip {
			continue
		}
		sh := s.shards[j.shard]
		var h *cbtree.Hint
		if sh.locates(j.req.Op) {
			h = &w.hints[w.next[j.shard]]
			w.next[j.shard]++
		}
		w.arena = &bt.arenas[j.shard]
		j.resp = s.apply(sh, j.req, w, h)
	}
	clear(w.hints[:len(keys)])
}

// apply executes one request against the shard's engine, recording it in
// the worker's tally for the shard. Engine errors (a poisoned disk engine)
// answer StatusUnavail: the server keeps the wire protocol up but
// acknowledges nothing it cannot guarantee.
func (s *Server) apply(sh *shard, req Request, w *worker, h *cbtree.Hint) Response {
	t := &w.tallies[sh.id]
	switch req.Op {
	case OpGet, OpGetSeq:
		// OpGetSeq is a bounded-staleness get: on a follower, refuse
		// (StatusLagging) rather than serve state older than the client's
		// floor — the client retries the leader. On a leader the floor is
		// always met (clients learn MinSeq from this leader's own acks), and
		// on an unreplicated server it degrades to a plain get.
		t[cGets]++
		if req.Op == OpGetSeq {
			if f := s.followerSource(); f != nil && f.AppliedSeq(sh.id) < req.MinSeq {
				t[cLagging]++
				return Response{Status: StatusLagging}
			}
		}
		v, ok, err := sh.get(req.Key, h)
		if err != nil {
			t[cUnavail]++
			return Response{Status: StatusUnavail}
		}
		if !ok {
			return Response{Status: StatusMiss}
		}
		return Response{Status: StatusOK, HasVal: true, Val: v}
	case OpPut, OpDel:
		if s.repl.follower.Load() != nil {
			// Followers never mutate outside the replication stream; the
			// client re-routes this to the leader.
			t[cNotLeader]++
			return Response{Status: StatusNotLeader}
		}
		var ok bool
		var err error
		if req.Op == OpPut {
			t[cPuts]++
			ok, err = sh.put(req.Key, req.Val, h)
		} else {
			t[cDels]++
			ok, err = sh.del(req.Key, h)
		}
		if err != nil {
			t[cUnavail]++
			return Response{Status: StatusUnavail}
		}
		if ok {
			return Response{Status: StatusOK}
		}
		return Response{Status: StatusMiss}
	case OpPing:
		t[cPings]++
		return Response{Status: StatusOK}
	// Query ops tally inside their exec functions: a bad token counts as
	// a bad request, not as a scan, so each request lands in exactly one
	// op-kind bucket.
	case OpScan:
		return s.execScan(req, w, t)
	case OpSeek:
		return s.execSeek(req, w, t)
	case OpLookup:
		return s.execLookup(req, w, t)
	case OpSeqs:
		return s.execSeqs(t)
	default:
		t[cBad]++
		return Response{Status: StatusBadRequest}
	}
}
