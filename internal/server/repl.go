package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"btreeperf/internal/journal"
	"btreeperf/internal/query"
	"btreeperf/internal/repl"
)

// Replication wiring. A server plays one of three roles:
//
//   - unreplicated (the default): nothing here is active, and the wire
//     protocol is byte-identical to the pre-replication server;
//   - leader: StartHub builds a repl.Hub over the shards' journals and
//     installs each journal's retention floor, the shards' commit
//     pipelines stamp acknowledged mutations with the shard's durable
//     sequence and — with Config.ReplAcks > 0 — hold them for the
//     semi-synchronous follower-ack barrier (shard.go);
//   - follower: AttachFollower points the serving layer at a
//     FollowerSource (normally a *repl.Applier); puts and dels answer
//     StatusNotLeader, and OpGetSeq enforces the client's staleness
//     bound against the applied sequence, answering StatusLagging
//     rather than ever serving past it.
//
// Promotion flips a follower to a leader in place: the promote hook
// (installed by btserved) stops the applier, waits for its last apply to
// land, detaches it, and starts a hub under a fresh epoch.

// seqEngine is the engine capability replication leadership requires:
// journal-backed global sequences. Only the disk engine has it.
type seqEngine interface {
	Journal() *journal.Journal
	DurableSeq() int64
}

// FollowerSource is the follower-side replication state the serving
// layer consults: per-shard applied sequences for bounded-staleness
// reads, and a stats snapshot for telemetry. *repl.Applier implements it.
type FollowerSource interface {
	AppliedSeq(shard int) int64
	Stats() repl.ApplierStats
}

// followerRef boxes a FollowerSource so the role can live in an
// atomic.Pointer (interfaces cannot).
type followerRef struct{ src FollowerSource }

// replState is the server's mutable replication role. The hub and
// follower pointers are atomics — apply() consults the role on every
// mutation, and promotion flips it concurrently with serving; the mutex
// guards only the rarely-touched promote hook.
type replState struct {
	hub      atomic.Pointer[repl.Hub]
	follower atomic.Pointer[followerRef]
	mu       sync.Mutex
	promote  func() (uint64, error)
}

// Hub returns the leader-side replication hub, nil unless leading.
func (s *Server) Hub() *repl.Hub { return s.repl.hub.Load() }

// Follower returns the follower source, nil unless following.
func (s *Server) Follower() FollowerSource {
	if r := s.repl.follower.Load(); r != nil {
		return r.src
	}
	return nil
}

// IsFollower reports whether the server currently refuses mutations.
func (s *Server) IsFollower() bool { return s.Follower() != nil }

// StartHub makes the server a replication leader: it builds a repl.Hub
// over every shard's journal (each engine must be a disk engine — only
// journal-backed shards have the global sequences replication ships) and
// installs each journal's retention policy: segments at or above the
// slowest registered follower's acked sequence are retained, up to
// retainBudget bytes per shard, beyond which the slowest follower is
// evicted into a snapshot resync. The caller serves the returned hub on
// its replication listener.
func (s *Server) StartHub(epoch uint64, retainBudget int64, logf func(string, ...any)) (*repl.Hub, error) {
	shards := make([]repl.HubShard, len(s.shards))
	for i, sh := range s.shards {
		se, ok := sh.eng.(seqEngine)
		if !ok || se.Journal() == nil {
			return nil, fmt.Errorf("server: shard %d engine %q cannot lead: no journal", i, sh.eng.Kind())
		}
		shards[i] = repl.HubShard{
			Journal:  se.Journal(),
			Snapshot: s.snapshotShard(i),
		}
	}
	hub := repl.NewHub(epoch, shards, logf)
	for i, sh := range s.shards {
		shard := i
		se := sh.eng.(seqEngine)
		se.Journal().SetRetention(func() int64 { return hub.RetentionFloor(shard) }, retainBudget)
	}
	s.repl.follower.Store(nil)
	s.repl.hub.Store(hub)
	return hub, nil
}

// snapshotShard returns the fuzzy-snapshot closure for one shard: it
// captures the shard's durable sequence BEFORE scanning, so the snapshot
// plus an idempotent replay of every record after that sequence
// converges regardless of the mutations the scan raced with.
func (s *Server) snapshotShard(i int) func(yield func([]repl.KV) error) (int64, error) {
	sh := s.shards[i]
	return func(yield func([]repl.KV) error) (int64, error) {
		seq := sh.eng.(seqEngine).DurableSeq()
		err := sh.scanAll(func(ents []query.KV) error {
			kvs := make([]repl.KV, len(ents))
			for j, e := range ents {
				kvs[j] = repl.KV{Key: e.Key, Val: e.Val}
			}
			return yield(kvs)
		})
		if err != nil {
			return 0, err
		}
		return seq, nil
	}
}

// AttachFollower makes the server a replication follower: mutations
// answer StatusNotLeader and OpGetSeq enforces its staleness bound
// against src. Call before Serve, or at role changes.
func (s *Server) AttachFollower(src FollowerSource) {
	s.repl.follower.Store(&followerRef{src: src})
}

// DetachFollower clears the follower role (promotion path).
func (s *Server) DetachFollower() {
	s.repl.follower.Store(nil)
}

// ApplierShards builds the follower-side replay callbacks over the
// server's shards, index maintenance included — the follower's engines
// and secondary index track the leader exactly as if the ops had arrived
// over the wire. Pass them to repl.NewApplier.
func (s *Server) ApplierShards() []repl.ApplierShard {
	out := make([]repl.ApplierShard, len(s.shards))
	for i := range s.shards {
		sh := s.shards[i]
		out[i] = repl.ApplierShard{
			Apply: func(o repl.Ops) error {
				for _, op := range o.Ops {
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
				// The ack that follows promises durability: group-commit
				// the engine before returning.
				return sh.eng.Commit()
			},
			Reset: func() error {
				return s.resetShard(sh)
			},
			Load: func(kvs []repl.KV) error {
				for _, kv := range kvs {
					if _, err := sh.put(kv.Key, kv.Val); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	return out
}

// resetShard empties one shard for a snapshot resync by scanning and
// deleting page by page — engine-agnostic, and keeps the secondary index
// in step. Slow for a large shard, but resync is already the degraded
// path (the follower fell off the retained log).
func (s *Server) resetShard(sh *shard) error {
	err := sh.scanAll(func(ents []query.KV) error {
		for _, e := range ents {
			if _, err := sh.del(e.Key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return sh.eng.Commit()
}

// SetPromoteHook installs the role-flip procedure POST /promote runs.
// The hook must stop the applier (and wait for its last apply), detach
// the follower role, start a hub, and return the new epoch.
func (s *Server) SetPromoteHook(fn func() (uint64, error)) {
	s.repl.mu.Lock()
	s.repl.promote = fn
	s.repl.mu.Unlock()
}

// ErrNotFollower is returned by Promote on a server not following.
var ErrNotFollower = errors.New("server: not a follower")

// Promote flips a follower into a leader via the installed hook,
// returning the new epoch.
func (s *Server) Promote() (uint64, error) {
	if !s.IsFollower() {
		return 0, ErrNotFollower
	}
	s.repl.mu.Lock()
	fn := s.repl.promote
	s.repl.mu.Unlock()
	if fn == nil {
		return 0, errors.New("server: no promote hook installed")
	}
	return fn()
}

// shardSeq is the replication sequence OpSeqs reports for one shard:
// the applied sequence on a follower, the durable sequence on a
// journal-backed leader, zero otherwise.
func (s *Server) shardSeq(i int) int64 {
	if f := s.Follower(); f != nil {
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
	hub, fol := s.Hub(), s.Follower()
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
