package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/journal"
)

// ApplierShard is the follower-side view of one shard. The applier calls
// Commit before every ack, and an acked sequence is a promise the write
// survives a follower restart on durable engines, so Commit must make
// everything applied so far as durable as the follower's engine is
// configured to be.
type ApplierShard struct {
	// Apply replays records in order: a tail batch or a snapshot page.
	Apply func(ops []journal.Op) error
	// Commit makes everything applied so far durable.
	Commit func() error
	// Reset discards the shard's entire state (snapshot resync begins).
	Reset func() error
}

// redialWait is the pause between connection attempts.
const redialWait = 250 * time.Millisecond

// ApplierConfig configures a follower's replication client.
type ApplierConfig struct {
	Addr   string  // leader's replication listener
	ID     uint64  // persistent follower identity
	Epoch  uint64  // leader epoch the start seqs belong to (0 = none)
	Seqs   []int64 // per-shard applied seqs to resume from
	Shards []ApplierShard
	// OnProgress, if set, runs after every applied batch or completed
	// snapshot with the current epoch and applied seqs — the hook where
	// btserved persists its replication sidecar state. It must not block.
	OnProgress func(epoch uint64, seqs []int64)
	Logf       func(format string, args ...any)
}

// Applier connects to a leader and replays its oplog stream. Run retries
// the connection until Stop; a follower outliving a dead leader keeps
// its last applied state and serves bounded-staleness reads.
type Applier struct {
	cfg ApplierConfig

	mu      sync.Mutex
	conn    net.Conn
	stopped bool
	epoch   uint64
	applied []int64
	heads   []int64 // leader durable head per shard, from Ops frames

	// done is closed when Run returns — after the last in-flight Apply
	// has landed, so Wait() gives promotion a quiesced engine.
	done chan struct{}

	opsApplied atomic.Int64
	snapshots  atomic.Int64
	reconnects atomic.Int64
}

// NewApplier builds an applier; call Run to start streaming.
func NewApplier(cfg ApplierConfig) *Applier {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seqs := make([]int64, len(cfg.Shards))
	copy(seqs, cfg.Seqs)
	return &Applier{
		cfg:     cfg,
		epoch:   cfg.Epoch,
		applied: seqs,
		heads:   make([]int64, len(cfg.Shards)),
		done:    make(chan struct{}),
	}
}

// Run streams from the leader until Stop, reconnecting on any error.
// Call from its own goroutine.
func (a *Applier) Run() {
	defer close(a.done)
	for {
		a.mu.Lock()
		if a.stopped {
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
		if err := a.session(); err != nil {
			a.cfg.Logf("repl: follower: %v", err)
		}
		a.mu.Lock()
		stopped := a.stopped
		a.mu.Unlock()
		if stopped {
			return
		}
		a.reconnects.Add(1)
		time.Sleep(redialWait)
	}
}

// Stop ends the stream and unblocks Run. The applier keeps its applied
// state; AppliedSeqs remains valid (promotion reads it).
func (a *Applier) Stop() {
	a.mu.Lock()
	a.stopped = true
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
}

// Wait blocks until Run has returned — i.e. until the last in-flight
// Apply has committed. Promotion must Stop then Wait before mutating the
// engines under a new role: a straggler apply racing post-promotion
// writes would silently diverge the shard.
func (a *Applier) Wait() { <-a.done }

// AppliedSeqs returns the per-shard highest applied sequences.
func (a *Applier) AppliedSeqs() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.applied...)
}

// AppliedSeq returns one shard's highest applied sequence — the bound
// the serving layer compares a client's min-seq against.
func (a *Applier) AppliedSeq(shard int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if shard < 0 || shard >= len(a.applied) {
		return 0
	}
	return a.applied[shard]
}

// Epoch returns the leader epoch the applied seqs belong to.
func (a *Applier) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// ApplierStats is a point-in-time summary of the follower's stream.
type ApplierStats struct {
	Epoch      uint64
	Applied    []int64 // per shard
	Heads      []int64 // leader durable head per shard at last batch
	LagSeqs    int64   // Σ max(0, head − applied)
	OpsApplied int64
	Snapshots  int64
	Reconnects int64
	Connected  bool
}

// Stats snapshots the applier.
func (a *Applier) Stats() ApplierStats {
	a.mu.Lock()
	st := ApplierStats{
		Epoch:      a.epoch,
		Applied:    append([]int64(nil), a.applied...),
		Heads:      append([]int64(nil), a.heads...),
		Connected:  a.conn != nil,
		OpsApplied: a.opsApplied.Load(),
		Snapshots:  a.snapshots.Load(),
		Reconnects: a.reconnects.Load(),
	}
	a.mu.Unlock()
	for s := range st.Applied {
		if d := st.Heads[s] - st.Applied[s]; d > 0 {
			st.LagSeqs += d
		}
	}
	return st
}

func (a *Applier) progress() {
	if a.cfg.OnProgress == nil {
		return
	}
	a.mu.Lock()
	epoch := a.epoch
	seqs := append([]int64(nil), a.applied...)
	a.mu.Unlock()
	a.cfg.OnProgress(epoch, seqs)
}

// session runs one connection's lifetime: handshake, then frames until
// an error.
func (a *Applier) session() error {
	c, err := net.DialTimeout("tcp", a.cfg.Addr, handshakeTimeout)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		c.Close()
		return nil
	}
	a.conn = c
	hello := Hello{ID: a.cfg.ID, Epoch: a.epoch, Seqs: append([]int64(nil), a.applied...)}
	a.mu.Unlock()
	defer func() {
		c.Close()
		a.mu.Lock()
		if a.conn == c {
			a.conn = nil
		}
		a.mu.Unlock()
	}()

	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(c, FrameHello, EncodeHello(hello)); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := ReadFrame(c)
	if err != nil {
		return err
	}
	if typ == FrameError {
		return fmt.Errorf("leader rejected: %s", payload)
	}
	if typ != FrameHelloAck {
		return fmt.Errorf("handshake got frame %d", typ)
	}
	ack, err := ParseHelloAck(payload)
	if err != nil {
		return err
	}
	if ack.Shards != len(a.cfg.Shards) {
		return errors.New("leader shard count mismatch")
	}
	a.mu.Lock()
	if ack.Epoch != a.epoch {
		// Positions of another lineage claim nothing in this one.
		a.epoch = ack.Epoch
		clear(a.applied)
	}
	a.mu.Unlock()
	c.SetReadDeadline(time.Time{})

	// inSnap marks shards mid-resync, between SnapBegin and SnapEnd: their
	// position is 0 and their Ops frames are snapshot pages.
	inSnap := make([]bool, len(a.cfg.Shards))
	for {
		typ, payload, err := ReadFrame(c)
		if err != nil {
			return err
		}
		switch typ {
		case FrameSnapBegin:
			s, err := ParseSnapBegin(payload)
			if err != nil || s < 0 || s >= len(a.cfg.Shards) {
				return errors.New("bad snapbegin")
			}
			a.mu.Lock()
			a.applied[s] = 0
			a.mu.Unlock()
			if err := a.cfg.Shards[s].Reset(); err != nil {
				return fmt.Errorf("shard %d reset: %w", s, err)
			}
			inSnap[s] = true

		case FrameSnapEnd:
			se, err := ParseSnapEnd(payload)
			if err != nil || se.Shard < 0 || se.Shard >= len(a.cfg.Shards) || !inSnap[se.Shard] {
				return errors.New("bad snapend")
			}
			inSnap[se.Shard] = false
			a.snapshots.Add(1)
			if err := a.commitAndAck(c, se.Shard, se.Seq, se.Seq); err != nil {
				return err
			}

		case FrameOps:
			o, err := ParseOps(payload)
			if err != nil {
				return err
			}
			if o.Shard < 0 || o.Shard >= len(a.cfg.Shards) {
				return errors.New("ops for unexpected shard")
			}
			if inSnap[o.Shard] {
				if err := a.cfg.Shards[o.Shard].Apply(o.Ops); err != nil {
					return fmt.Errorf("shard %d snapshot: %w", o.Shard, err)
				}
				continue
			}
			a.mu.Lock()
			applied := a.applied[o.Shard]
			a.mu.Unlock()
			// Tolerate overlap (a reconnect can replay acked records —
			// replay is idempotent, but skipping keeps apply cheap); a gap
			// would silently diverge, so it kills the session instead.
			if o.First > applied+1 {
				return fmt.Errorf("shard %d stream gap: have %d, got %d", o.Shard, applied, o.First)
			}
			last := o.First + int64(len(o.Ops)) - 1
			if last <= applied {
				continue
			}
			if skip := applied + 1 - o.First; skip > 0 {
				o.Ops = o.Ops[skip:]
			}
			if err := a.cfg.Shards[o.Shard].Apply(o.Ops); err != nil {
				return fmt.Errorf("shard %d apply: %w", o.Shard, err)
			}
			a.opsApplied.Add(int64(len(o.Ops)))
			if err := a.commitAndAck(c, o.Shard, last, o.Head); err != nil {
				return err
			}

		case FrameError:
			return fmt.Errorf("leader error: %s", payload)

		default:
			return fmt.Errorf("unexpected frame %d", typ)
		}
	}
}

// commitAndAck is the one way a position rises: commit shard s, adopt seq
// as its position, report progress, then ack seq to the leader.
func (a *Applier) commitAndAck(c net.Conn, s int, seq, head int64) error {
	if err := a.cfg.Shards[s].Commit(); err != nil {
		return fmt.Errorf("shard %d commit: %w", s, err)
	}
	a.mu.Lock()
	a.applied[s] = seq
	if head > a.heads[s] {
		a.heads[s] = head
	}
	a.mu.Unlock()
	a.progress()
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return WriteFrame(c, FrameAck, EncodeAck(Ack{Shard: s, Seq: seq}))
}
