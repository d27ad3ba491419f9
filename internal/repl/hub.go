package repl

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/journal"
	"btreeperf/internal/query"
)

// HubShard is the leader-side view of one shard: the journal whose oplog
// is shipped, and a fuzzy snapshot scan for followers the log cannot
// serve. Snapshot yields the shard's pages in its own buffers, and must
// capture the shard's durable sequence BEFORE scanning and return it: the
// snapshot then needs only an idempotent replay of records after that
// sequence to converge, no matter what the scan raced with.
type HubShard struct {
	Journal  *journal.Journal
	Snapshot func(yield func(page []query.KV) error) (snapSeq int64, err error)
}

// writeTimeout bounds a single frame write to a follower; a stuck peer
// is dropped, not allowed to pin a shipping goroutine forever.
const writeTimeout = 10 * time.Second

// handshakeTimeout bounds the wait for a connecting follower's Hello.
const handshakeTimeout = 10 * time.Second

// pokeInterval is the fallback poll period when no commit wakes shippers.
const pokeInterval = 50 * time.Millisecond

// followerState is the hub's durable memory of one follower, surviving
// disconnects: its acked positions keep holding the retention floor (up
// to the journals' byte budgets) so a restarting follower can usually
// catch up from the log instead of resyncing.
type followerState struct {
	id        uint64
	addr      string
	connected bool
	acked     []int64 // per shard; guarded by Hub.mu
	poke      chan struct{}
}

// Hub is the leader side: it accepts follower connections, catches each
// one up from retained log segments (or a snapshot), then streams the
// live oplog, tracking per-follower acks for the retention floor and for
// semi-synchronous commit waits.
type Hub struct {
	epoch  uint64
	shards []HubShard
	logf   func(format string, args ...any)

	mu        sync.Mutex
	followers map[uint64]*followerState
	conns     map[net.Conn]struct{}
	ackCh     chan struct{} // closed+replaced on every ack: broadcast
	closed    bool
	wg        sync.WaitGroup

	opsShipped   atomic.Int64
	bytesShipped atomic.Int64
	acks         atomic.Int64
	snapshots    atomic.Int64
	evictions    atomic.Int64
}

// NewHub creates a hub for the given epoch and shards. logf may be nil.
func NewHub(epoch uint64, shards []HubShard, logf func(string, ...any)) *Hub {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Hub{
		epoch:     epoch,
		shards:    shards,
		logf:      logf,
		followers: make(map[uint64]*followerState),
		conns:     make(map[net.Conn]struct{}),
		ackCh:     make(chan struct{}),
	}
}

// Epoch returns the hub's replication epoch.
func (h *Hub) Epoch() uint64 { return h.epoch }

// Serve accepts follower connections until the listener closes. Call
// from its own goroutine; Close unblocks it.
func (h *Hub) Serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			c.Close()
			return nil
		}
		h.conns[c] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			h.handleConn(c)
		}()
	}
}

// Close drops every follower connection and waits for their goroutines.
// The caller closes the listener (Serve then returns nil).
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
}

// Poke wakes every connected follower's shipping loop — call after a
// group commit advances a shard's durable sequence.
func (h *Hub) Poke() {
	h.mu.Lock()
	for _, f := range h.followers {
		if f.connected && f.poke != nil {
			select {
			case f.poke <- struct{}{}:
			default:
			}
		}
	}
	h.mu.Unlock()
}

// RetentionFloor returns the lowest acked sequence for the shard across
// all registered followers — the sequence the journal must keep retained
// (within its byte budget) for log catch-up. math.MaxInt64 when no
// follower is registered.
func (h *Hub) RetentionFloor(shard int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	floor := int64(math.MaxInt64)
	for _, f := range h.followers {
		if f.acked[shard] < floor {
			floor = f.acked[shard]
		}
	}
	return floor
}

// WaitAcked blocks until at least k followers have acked seq on the
// shard, or the timeout expires. k <= 0 is immediately true. This is the
// semi-synchronous commit barrier: with k = #followers, any follower
// with the maximal applied sequence is guaranteed to hold every write
// acknowledged through this wait — the failover promotion invariant.
func (h *Hub) WaitAcked(shard int, seq int64, k int, timeout time.Duration) bool {
	if k <= 0 {
		return true
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		h.mu.Lock()
		n := 0
		for _, f := range h.followers {
			if f.acked[shard] >= seq {
				n++
			}
		}
		ch := h.ackCh
		h.mu.Unlock()
		if n >= k {
			return true
		}
		if timer == nil {
			timer = time.NewTimer(timeout)
		}
		select {
		case <-ch:
		case <-timer.C:
			return false
		}
	}
}

// broadcastAck wakes every WaitAcked waiter.
func (h *Hub) broadcastAck() {
	h.mu.Lock()
	close(h.ackCh)
	h.ackCh = make(chan struct{})
	h.mu.Unlock()
}

func (h *Hub) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		h.mu.Lock()
		delete(h.conns, c)
		h.mu.Unlock()
	}()

	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := ReadFrame(c)
	if err != nil || typ != FrameHello {
		h.logf("repl: %s: bad handshake: %v", c.RemoteAddr(), err)
		return
	}
	hello, err := ParseHello(payload)
	if err != nil || len(hello.Seqs) != len(h.shards) {
		WriteFrame(c, FrameError, []byte(fmt.Sprintf("want %d shards", len(h.shards))))
		return
	}
	c.SetReadDeadline(time.Time{})

	// The one position rule (package comment): tail a shard only from a
	// position applied in this epoch and still retained, snapshot it in
	// every other case.
	tail := make([]bool, len(h.shards))
	for s, seq := range hello.Seqs {
		tail[s] = hello.Epoch == h.epoch && seq > 0 && seq >= h.shards[s].Journal.LowestSeq()
	}
	if hello.Epoch != h.epoch {
		h.logf("repl: follower %x from epoch %d (ours %d): full snapshot resync", hello.ID, hello.Epoch, h.epoch)
	}

	h.mu.Lock()
	f := h.followers[hello.ID]
	if f == nil {
		f = &followerState{
			id:    hello.ID,
			acked: make([]int64, len(h.shards)),
		}
		h.followers[hello.ID] = f
	}
	f.addr = c.RemoteAddr().String()
	f.connected = true
	poke := make(chan struct{}, 1)
	f.poke = poke
	for s, seq := range hello.Seqs {
		if tail[s] && seq > f.acked[s] {
			f.acked[s] = seq
		}
	}
	h.mu.Unlock()

	defer func() {
		h.mu.Lock()
		if f.poke == poke { // a reconnect may have replaced us
			f.connected = false
			f.poke = nil
		}
		h.mu.Unlock()
	}()

	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(c, FrameHelloAck, EncodeHelloAck(HelloAck{Epoch: h.epoch, Shards: len(h.shards)})); err != nil {
		return
	}

	// Acks arrive on their own goroutine so a slow snapshot stream never
	// deadlocks against a follower trying to ack previous batches.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer c.Close() // unblock the shipping loop on reader death
		for {
			typ, payload, err := ReadFrame(c)
			if err != nil {
				return
			}
			if typ != FrameAck {
				h.logf("repl: follower %x sent frame %d, dropping", hello.ID, typ)
				return
			}
			ack, err := ParseAck(payload)
			if err != nil || ack.Shard < 0 || ack.Shard >= len(h.shards) {
				return
			}
			h.mu.Lock()
			if ack.Seq > f.acked[ack.Shard] {
				f.acked[ack.Shard] = ack.Seq
			}
			h.mu.Unlock()
			h.acks.Add(1)
			h.broadcastAck()
		}
	}()

	h.ship(c, f, poke, hello.Seqs, tail)
}

// ship is a follower's shipping loop: snapshot every shard not to be
// tailed, then stream every shard's retained log and live tail,
// round-robin.
func (h *Hub) ship(c net.Conn, f *followerState, poke chan struct{}, from []int64, tail []bool) {
	tails := make([]*journal.Tail, len(h.shards))
	defer func() {
		for _, t := range tails {
			if t != nil {
				t.Close()
			}
		}
	}()

	for s := range h.shards {
		if !tail[s] {
			snapSeq, err := h.sendSnapshot(c, s)
			if err != nil {
				h.logf("repl: follower %x shard %d snapshot: %v", f.id, s, err)
				return
			}
			from[s] = snapSeq
		}
		tails[s] = h.shards[s].Journal.Tail(from[s])
	}

	ticker := time.NewTicker(pokeInterval)
	defer ticker.Stop()
	for {
		progress := false
		for s := range h.shards {
			first, ops, err := tails[s].Next(MaxOpsBatch)
			if err == journal.ErrEvicted {
				// The follower's position fell off the retained log while
				// it was connected (budget eviction mid-stream): degrade
				// to a snapshot resync on the spot.
				h.evictions.Add(1)
				h.logf("repl: follower %x shard %d evicted at seq %d, snapshot resync", f.id, s, tails[s].Pos())
				tails[s].Close()
				snapSeq, serr := h.sendSnapshot(c, s)
				if serr != nil {
					return
				}
				tails[s] = h.shards[s].Journal.Tail(snapSeq)
				progress = true
				continue
			}
			if err != nil {
				h.logf("repl: follower %x shard %d tail: %v", f.id, s, err)
				return
			}
			if len(ops) == 0 {
				continue
			}
			head := h.shards[s].Journal.SeqDurable()
			frame := EncodeOps(Ops{Shard: s, First: first, Head: head, Ops: ops})
			c.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := WriteFrame(c, FrameOps, frame); err != nil {
				return
			}
			h.opsShipped.Add(int64(len(ops)))
			h.bytesShipped.Add(int64(len(frame) + 5))
			progress = true
		}
		if !progress {
			select {
			case <-poke:
			case <-ticker.C:
			}
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return
			}
		}
	}
}

// sendSnapshot streams one shard's fuzzy snapshot: its pages as Ops
// insert records between SnapBegin and SnapEnd.
func (h *Hub) sendSnapshot(c net.Conn, s int) (int64, error) {
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(c, FrameSnapBegin, EncodeSnapBegin(s)); err != nil {
		return 0, err
	}
	snapSeq, err := h.shards[s].Snapshot(func(page []query.KV) error {
		for len(page) > 0 {
			n := min(len(page), MaxOpsBatch)
			frame := opsHeader(s, 0, 0, n)
			for _, kv := range page[:n] {
				frame = journal.AppendEncodedOp(frame, journal.Op{Kind: journal.OpInsert, Key: kv.Key, Val: kv.Val})
			}
			c.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := WriteFrame(c, FrameOps, frame); err != nil {
				return err
			}
			h.bytesShipped.Add(int64(len(frame) + 5))
			page = page[n:]
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(c, FrameSnapEnd, EncodeSnapEnd(SnapEnd{Shard: s, Seq: snapSeq})); err != nil {
		return 0, err
	}
	h.snapshots.Add(1)
	return snapSeq, nil
}

// FollowerStats is one follower's replication position as the leader
// sees it. The JSON tags are its shape in the server's /metrics
// replication block.
type FollowerStats struct {
	ID        uint64  `json:"id"`
	Addr      string  `json:"addr"`
	Connected bool    `json:"connected"`
	Acked     []int64 `json:"acked"`     // per shard: highest acked sequence
	LagSeqs   int64   `json:"lag_seqs"`  // Σ over shards of (leader durable head − acked)
	LagBytes  int64   `json:"lag_bytes"` // LagSeqs × the wire size of one record
}

// HubStats is a point-in-time summary of the hub.
type HubStats struct {
	Epoch        uint64
	Followers    []FollowerStats
	OpsShipped   int64
	BytesShipped int64
	Acks         int64
	Snapshots    int64
	Evictions    int64
}

// Stats snapshots the hub's counters and per-follower lag.
func (h *Hub) Stats() HubStats {
	heads := make([]int64, len(h.shards))
	for s := range h.shards {
		heads[s] = h.shards[s].Journal.SeqDurable()
	}
	st := HubStats{
		Epoch:        h.epoch,
		OpsShipped:   h.opsShipped.Load(),
		BytesShipped: h.bytesShipped.Load(),
		Acks:         h.acks.Load(),
		Snapshots:    h.snapshots.Load(),
		Evictions:    h.evictions.Load(),
	}
	h.mu.Lock()
	for _, f := range h.followers {
		fs := FollowerStats{
			ID:        f.id,
			Addr:      f.addr,
			Connected: f.connected,
			Acked:     append([]int64(nil), f.acked...),
		}
		for s := range heads {
			if d := heads[s] - f.acked[s]; d > 0 {
				fs.LagSeqs += d
			}
		}
		fs.LagBytes = fs.LagSeqs * journal.OpRecSize
		st.Followers = append(st.Followers, fs)
	}
	h.mu.Unlock()
	return st
}
