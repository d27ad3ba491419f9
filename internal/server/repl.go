package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
	"btreeperf/internal/query"
	"btreeperf/internal/repl"
)

// Replication roles. A server is in one of four states, and this file is
// the only code that moves it between them (DESIGN.md "Replication
// roles" has the table and the state-file ordering):
//
//   - unreplicated (the default): nothing here is active, and the wire
//     protocol is byte-identical to the pre-replication server;
//   - leading (StartRepl with Listen, or Promote): a repl.Hub ships the
//     shards' journals; the commit pipelines stamp acknowledged mutations
//     with the shard's durable sequence and — with Config.ReplAcks > 0 —
//     hold them for the semi-synchronous follower-ack barrier (shard.go);
//   - following (StartRepl with Follow): a repl.Applier replays the
//     leader's stream into the shards; puts and dels answer
//     StatusNotLeader, and OpGetSeq answers StatusLagging rather than
//     serve past the client's staleness bound;
//   - stopped (Close, after Serve has drained).

// seqEngine is the engine capability replication leadership requires:
// journal-backed global sequences. Only the disk engine has it.
type seqEngine interface {
	Journal() *journal.Journal
	DurableSeq() int64
}

// FollowerSource is the follower-side replication state the serving
// layer consults: per-shard applied sequences for bounded-staleness
// reads, and a stats snapshot for telemetry. *repl.Applier implements it;
// the interface exists so a test can stand a fixed position in its place.
type FollowerSource interface {
	AppliedSeq(shard int) int64
	Stats() repl.ApplierStats
}

// ReplOptions selects the role StartRepl gives the server.
type ReplOptions struct {
	Listen      string // hub listen address: lead here now, or — with Follow — after promotion
	Follow      string // leader's hub address; "" = lead, or with no Listen stay unreplicated
	RetainBytes int64  // per-shard oplog retention budget while leading
	StatePath   string // replication state file; "" = don't persist (non-durable engines never do)
	Resync      bool   // ignore the persisted state: new identity, full snapshot resync
	Logf        func(format string, args ...any)
}

const (
	roleUnreplicated = iota
	roleLeading
	roleFollowing
	roleStopped
)

// saveEvery throttles the applier's per-batch position saves.
const saveEvery = 200 * time.Millisecond

// replState is the server's replication role. apply() reads hub and
// follower on every mutation, so those two are atomics; everything else
// changes only in a role transition, under mu.
type replState struct {
	hub      atomic.Pointer[repl.Hub]
	follower atomic.Pointer[FollowerSource]

	mu     sync.Mutex // serializes StartRepl, Promote and stop
	role   int
	opt    ReplOptions
	id     uint64        // persistent node identity
	ln     net.Listener  // hub listener: served while leading, held open while following
	served chan struct{} // closed when the hub's accept loop has returned
	ap     *repl.Applier // the leader's stream; non-nil only while following

	fs       pagestore.FS // the state file's file layer; nil = real files (failpoint tests)
	saveMu   sync.Mutex   // the applier saves from its own goroutine
	lastSave time.Time
}

// followerSource returns the follower source, nil unless following.
func (s *Server) followerSource() FollowerSource {
	if f := s.repl.follower.Load(); f != nil {
		return *f
	}
	return nil
}

// newEpoch mints a lineage identifier for a fresh or promoted leader.
// Wall-clock nanos are unique enough across restarts of one deployment,
// and monotone enough that a promoted follower's epoch differs from the
// dead leader's — equality is all the protocol checks.
func newEpoch() uint64 { return uint64(time.Now().UnixNano()) }

// StartRepl takes an unreplicated server into its replication role, before
// Serve. With Follow it follows: the applier resumes from the state file
// (only a durable engine kept what the file claims; anything else starts
// from a full snapshot) and, if Listen is also given, the hub address is
// bound now so that Promote cannot lose a port race — connections queue in
// the accept backlog until the hub serves. With Listen alone it leads under
// a fresh epoch; every shard must be journal-backed. With neither it does
// nothing.
func (s *Server) StartRepl(opt ReplOptions) error {
	r := &s.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != roleUnreplicated {
		return errors.New("server: replication role already chosen")
	}
	if opt.Listen == "" && opt.Follow == "" {
		return nil
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if !s.shards[0].eng.Durable() {
		opt.StatePath = ""
	}
	// Both roles read the state file: a follower for its resume position, a
	// leader only for its identity (a fresh epoch is minted every time a
	// node starts leading — the previous lineage might have diverged past
	// what this disk can prove).
	var st repl.State
	if opt.StatePath != "" && !opt.Resync {
		var err error
		if st, err = repl.LoadState(r.fs, opt.StatePath, opt.Logf); err != nil {
			return err
		}
	}
	if st.ID == 0 {
		st.ID = uint64(time.Now().UnixNano())
	}
	r.opt, r.id = opt, st.ID

	var shards []repl.HubShard
	if opt.Follow == "" {
		var err error
		if shards, err = s.hubShards(); err != nil {
			return fmt.Errorf("repl leader: %w", err)
		}
	}
	if opt.Listen != "" {
		ln, err := net.Listen("tcp", opt.Listen)
		if err != nil {
			return err
		}
		r.ln = ln
	}
	if opt.Follow == "" {
		hub := s.lead(shards)
		opt.Logf("repl leader epoch=%d shipping on %s (retain %d MiB/shard)",
			hub.Epoch(), r.ln.Addr(), opt.RetainBytes>>20)
		return nil
	}

	// A state file written by a dead LEADER carries its epoch with no seqs:
	// the mismatch against the live leader's epoch forces the full resync
	// that discards this disk's possibly-diverged tail.
	r.ap = repl.NewApplier(repl.ApplierConfig{
		Addr:   opt.Follow,
		ID:     st.ID,
		Epoch:  st.Epoch,
		Seqs:   st.Seqs,
		Shards: s.applierShards(),
		// The applier reports a position only after Apply committed it, so
		// the file never claims a sequence the engine has not made durable.
		OnProgress: func(epoch uint64, seqs []int64) { r.save(epoch, seqs, false) },
		Logf:       opt.Logf,
	})
	src := FollowerSource(r.ap)
	r.follower.Store(&src)
	r.role = roleFollowing
	go r.ap.Run() // stopped and waited for by Promote or stopRepl
	opt.Logf("following %s id=%d epoch=%d seqs=%v", opt.Follow, st.ID, st.Epoch, st.Seqs)
	return nil
}

// ErrNotFollower is returned by Promote on a server not following.
var ErrNotFollower = errors.New("server: not a follower")

// Promote flips a follower into a leader in place and returns the new
// epoch. It is all or nothing, and concurrent calls are serialized: exactly
// one succeeds, the rest find the server no longer following. Everything
// that can fail is checked before the applier is touched, so a refused
// promotion leaves the node following — still applying, still answering
// StatusNotLeader. Past that point the order is the invariant: stop the
// applier and wait for its last apply to land (a straggler racing the new
// leader's writes would silently diverge the shard), only then start the
// hub under a fresh epoch, then record the lineage now led over the applied
// position, which no later save may bring back.
func (s *Server) Promote() (uint64, error) {
	r := &s.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != roleFollowing {
		return 0, ErrNotFollower
	}
	if r.ln == nil {
		return 0, errors.New("server: promote: no replication listen address to lead on")
	}
	shards, err := s.hubShards()
	if err != nil {
		return 0, fmt.Errorf("promote: %w", err)
	}
	r.ap.Stop()
	r.ap.Wait()
	r.ap = nil
	hub := s.lead(shards)
	r.opt.Logf("promoted to leader epoch=%d shipping on %s", hub.Epoch(), r.ln.Addr())
	return hub.Epoch(), nil
}

// lead starts a hub over shards on the bound listener under a fresh epoch,
// installs each journal's retention policy — segments at or above the
// slowest registered follower's acked sequence are retained, up to the
// budget per shard, beyond which the slowest follower is evicted into a
// snapshot resync — and records the lineage: if this process is killed and
// its disk rejoins as a follower, the stale epoch in the state file is what
// forces the snapshot resync over tailing onto divergence. Caller holds mu.
func (s *Server) lead(shards []repl.HubShard) *repl.Hub {
	r := &s.repl
	hub := repl.NewHub(newEpoch(), shards, r.opt.Logf)
	for i := range shards {
		shard := i
		shards[i].Journal.SetRetention(func() int64 { return hub.RetentionFloor(shard) }, r.opt.RetainBytes)
	}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		hub.Serve(r.ln) // returns once stopRepl has closed the hub and the listener
	}()
	r.hub.Store(hub)
	r.follower.Store(nil)
	r.role = roleLeading
	r.save(hub.Epoch(), nil, true)
	return hub
}

// stopRepl ends the role; Close calls it once Serve has drained, before the
// engines close. A follower's applied position is saved; a leader's file
// already records the lineage it leads, and a promoted node has no applier
// left whose pre-promotion position could overwrite it.
func (s *Server) stopRepl() {
	r := &s.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	if hub := r.hub.Load(); hub != nil {
		hub.Close()
	}
	if r.ln != nil {
		r.ln.Close()
	}
	if r.served != nil {
		<-r.served
	}
	if r.ap != nil {
		r.ap.Stop()
		r.ap.Wait()
		r.save(r.ap.Epoch(), r.ap.AppliedSeqs(), true)
		r.ap = nil
	}
	r.role = roleStopped
}

// save replaces the state file with {id, epoch, seqs}, at most once per
// saveEvery unless forced.
func (r *replState) save(epoch uint64, seqs []int64, force bool) {
	if r.opt.StatePath == "" {
		return
	}
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	now := time.Now()
	if !force && now.Sub(r.lastSave) < saveEvery {
		return
	}
	r.lastSave = now
	st := repl.State{ID: r.id, Epoch: epoch, Seqs: seqs}
	if err := st.Save(r.fs, r.opt.StatePath); err != nil {
		r.opt.Logf("repl state: %v", err)
	}
}

// hubShards builds the leader-side view of every shard: its journal and a
// fuzzy snapshot scan, which captures the shard's durable sequence BEFORE
// scanning, so the snapshot plus an idempotent replay of every record
// after that sequence converges regardless of the mutations the scan raced
// with. The scan's own pages go to the hub uncopied. It fails on the first
// shard that cannot lead — only journal-backed engines have the global
// sequences replication ships.
func (s *Server) hubShards() ([]repl.HubShard, error) {
	shards := make([]repl.HubShard, len(s.shards))
	for i, sh := range s.shards {
		se, ok := sh.eng.(seqEngine)
		if !ok || se.Journal() == nil {
			return nil, fmt.Errorf("server: shard %d engine %q cannot lead: no journal", i, sh.eng.Kind())
		}
		sh := sh
		shards[i] = repl.HubShard{Journal: se.Journal(), Snapshot: func(yield func([]query.KV) error) (int64, error) {
			seq := se.DurableSeq()
			return seq, sh.scanAll(yield)
		}}
	}
	return shards, nil
}

// applierShards builds the follower-side replay callbacks over the
// server's shards, index maintenance included — the follower's engines
// and secondary index track the leader exactly as if the ops had arrived
// over the wire. Tail batches and snapshot pages take the same path.
func (s *Server) applierShards() []repl.ApplierShard {
	out := make([]repl.ApplierShard, len(s.shards))
	for i := range s.shards {
		sh := s.shards[i]
		out[i] = repl.ApplierShard{
			Apply: func(ops []journal.Op) error {
				for _, op := range ops {
					var err error
					switch op.Kind {
					case journal.OpInsert:
						_, err = sh.put(op.Key, op.Val)
					case journal.OpDelete:
						_, err = sh.del(op.Key)
					default:
						err = fmt.Errorf("server: replicated op kind %d", op.Kind)
					}
					if err != nil {
						return err
					}
				}
				return nil
			},
			Commit: sh.eng.Commit,
			Reset: func() error {
				return resetShard(sh)
			},
		}
	}
	return out
}

// resetShard empties one shard for a snapshot resync by scanning and
// deleting page by page — engine-agnostic, and keeps the secondary index
// in step. Slow for a large shard, but resync is already the degraded
// path (the follower's position claims nothing the leader can tail).
func resetShard(sh *shard) error {
	return sh.scanAll(func(ents []query.KV) error {
		for _, e := range ents {
			if _, err := sh.del(e.Key); err != nil {
				return err
			}
		}
		return nil
	})
}

// shardSeq is the replication sequence OpSeqs reports for one shard:
// the applied sequence on a follower, the durable sequence on a
// journal-backed leader, zero otherwise.
func (s *Server) shardSeq(i int) int64 {
	if f := s.followerSource(); f != nil {
		return f.AppliedSeq(i)
	}
	if se, ok := s.shards[i].eng.(seqEngine); ok {
		return se.DurableSeq()
	}
	return 0
}

// replicationJSON is the /metrics replication block: role-common
// refusal counters plus the active role's stream telemetry.
type replicationJSON struct {
	Role        string `json:"role"` // leader | follower
	Epoch       uint64 `json:"epoch"`
	Acks        int    `json:"acks"`         // configured semi-sync follower-ack requirement
	AckTimeouts int64  `json:"ack_timeouts"` // commits that missed the ack barrier (answered Busy)
	NotLeader   int64  `json:"not_leader"`   // mutations refused on a follower
	Lagging     int64  `json:"lagging"`      // getseqs refused past the staleness bound

	// Leader side.
	OpsShipped   int64                `json:"ops_shipped,omitempty"`
	BytesShipped int64                `json:"bytes_shipped,omitempty"`
	AcksRecv     int64                `json:"acks_received,omitempty"`
	Snapshots    int64                `json:"snapshots,omitempty"`
	Evictions    int64                `json:"evictions,omitempty"`
	Followers    []repl.FollowerStats `json:"followers,omitempty"`

	// Follower side.
	Applied    []int64 `json:"applied,omitempty"` // per shard
	Heads      []int64 `json:"heads,omitempty"`   // leader durable head per shard
	LagSeqs    int64   `json:"lag_seqs,omitempty"`
	OpsApplied int64   `json:"ops_applied,omitempty"`
	Reconnects int64   `json:"reconnects,omitempty"`
	Connected  bool    `json:"connected,omitempty"`
}

// replicationStats snapshots the active role's replication telemetry;
// nil when the server is unreplicated.
func (s *Server) replicationStats() *replicationJSON {
	hub, fol := s.repl.hub.Load(), s.followerSource()
	if hub == nil && fol == nil {
		return nil
	}
	st := &replicationJSON{Acks: s.cfg.ReplAcks}
	for _, sh := range s.shards {
		st.AckTimeouts += sh.ctr[cAckTimeouts].Load()
		st.NotLeader += sh.ctr[cNotLeader].Load()
		st.Lagging += sh.ctr[cLagging].Load()
	}
	if hub != nil {
		hs := hub.Stats()
		st.Role, st.Epoch = "leader", hs.Epoch
		st.OpsShipped, st.BytesShipped, st.AcksRecv = hs.OpsShipped, hs.BytesShipped, hs.Acks
		st.Snapshots, st.Evictions, st.Followers = hs.Snapshots, hs.Evictions, hs.Followers
	} else {
		fs := fol.Stats()
		st.Role, st.Epoch = "follower", fs.Epoch
		st.Applied, st.Heads, st.LagSeqs = fs.Applied, fs.Heads, fs.LagSeqs
		st.OpsApplied, st.Snapshots = fs.OpsApplied, fs.Snapshots
		st.Reconnects, st.Connected = fs.Reconnects, fs.Connected
	}
	return st
}
