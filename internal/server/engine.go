package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/diskbtree"
	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
	"btreeperf/internal/query"
)

// Engine is the storage behind the serving layer. The in-memory engine
// (the default) wraps the instrumented cbtree; the disk engine wraps a
// durable diskbtree. A shard whose engine is Durable runs a committer
// (shard.commitLoop) that calls Commit once for every group of batches
// handed to it with a mutation among them, and withholds those mutations'
// OK responses until it returns — group commit: one oplog fsync covers
// the whole group, and nothing is acknowledged that a crash could lose.
//
// Engines fail stop: after a storage error every call returns a non-nil
// error (see diskbtree.ErrPoisoned) and Poisoned reports the cause. The
// serving layer maps engine errors to StatusUnavail and /healthz to 503.
type Engine interface {
	Get(key int64) (uint64, bool, error)
	Put(key int64, val uint64) (bool, error)
	Del(key int64) (bool, error)
	// Commit makes every mutation applied before the call durable. The
	// in-memory engine returns nil immediately.
	Commit() error
	// Durable reports whether Commit is a durability point — whether an
	// acknowledgement has to wait for it. It decides, per shard, between
	// the commit pipeline and releasing each batch straight from the
	// connection that executed it.
	Durable() bool
	// Scan appends to dst up to limit entries whose keys lie in [lo, hi),
	// in ascending key order, reporting whether more remain in range.
	// Both engines serve scans from the leaf chain (link-mode traversal:
	// one leaf shared-locked at a time), so a scan runs concurrently with
	// point ops and splits.
	Scan(lo, hi int64, limit int, dst []query.KV) ([]query.KV, bool, error)

	Kind() string      // "mem" or "disk"
	Algorithm() string // concurrency algorithm name for telemetry
	Cap() int
	Len() int
	Height() int
	Poisoned() error // sticky storage failure, nil while healthy
	Stats() EngineStats
	Close() error
}

// EngineStats is the engine telemetry block for /metrics.
type EngineStats struct {
	Splits, Restarts, Crossings int64

	// OLC latch-free read telemetry; zero under the locking algorithms.
	ReadRestarts  int64 // failed version validations
	ReadFallbacks int64 // descents that fell back to the locked path
	StaleHints    int64 // located leaves that had changed when their op ran

	// Durability progress; all zero on the in-memory engine.
	Recovered       int64 // ops replayed at open
	Appended        int64 // oplog records in the active oplog file
	Synced          int64 // of those, records no crash can lose
	OplogBytes      int64
	Fsyncs          int64 // group-commit fsyncs issued since open
	Checkpoints     int64 // checkpoints committed
	CheckpointLag   int64 // mutations behind the last committed checkpoint (replay debt)
	CheckpointFails int64 // checkpoint attempts that failed (each one poisons)

	// Global sequence positions (see internal/journal): every mutation
	// since the shard's creation carries one sequence number, surviving
	// checkpoints and restarts. SeqAppended covers every appended
	// mutation, SeqDurable every fsync-covered one (the committed bound
	// replication ships up to), SeqLowest-1 is the oldest sequence the
	// retained oplog can still replay.
	SeqAppended int64
	SeqDurable  int64
	SeqLowest   int64

	// Sealed oplog segments not yet deleted — held for lagging
	// replication followers, or holding records past the last checkpoint
	// — and their byte footprint.
	RetainedSegs  int64
	RetainedBytes int64

	// Checkpoint pause: how long the last checkpoint held writers (its
	// cut) and oplog commits (its trim), bounded by the pool's size and
	// not the tree's, and the maximum observed, in nanoseconds.
	CkptPauseLastNs int64
	CkptPauseMaxNs  int64

	// Checkpoint progress: pages written / pages to write by the
	// checkpoint in flight — its cut's pages, then its map. Total is
	// nonzero exactly while one runs.
	CkptChunksDone  int64
	CkptChunksTotal int64

	// The tree file's length in slots (its high-water mark while
	// running) and the free slots under it.
	StoreSlots     int64
	StoreFreeSlots int64
}

// memEngine adapts the instrumented in-memory cbtree. Commit is a no-op:
// the tree lives exactly as long as the process, so there is nothing a
// crash could lose that an fsync would save.
type memEngine struct{ t *cbtree.Tree }

func (e *memEngine) Get(key int64) (uint64, bool, error) {
	v, ok := e.t.Search(key)
	return v, ok, nil
}

func (e *memEngine) Put(key int64, val uint64) (bool, error) {
	return e.t.Insert(key, val), nil
}

func (e *memEngine) Del(key int64) (bool, error) {
	return e.t.Delete(key), nil
}

// Scan walks the cbtree leaf chain a leaf run at a time, copying each
// run into dst under that leaf's latch. A run that would overfill the
// page is the "more" verdict, so a page that ends exactly on a leaf
// boundary looks one leaf further and no second traversal is needed;
// RangeLeaves' hi is inclusive, so the exclusive bound becomes hi-1
// (safe: hi > lo >= MinInt64).
func (e *memEngine) Scan(lo, hi int64, limit int, dst []query.KV) ([]query.KV, bool, error) {
	if hi <= lo || limit <= 0 {
		return dst, false, nil
	}
	end := len(dst) + limit
	more := false
	e.t.RangeLeaves(lo, hi-1, func(keys []int64, vals []uint64) bool {
		if room := end - len(dst); len(keys) > room {
			keys, more = keys[:room], true
		}
		d := dst // appending through the captured variable would reload it per key
		for i, k := range keys {
			d = append(d, query.KV{Key: k, Val: vals[i]})
		}
		dst = d
		return !more
	})
	return dst, more, nil
}

func (e *memEngine) Commit() error     { return nil }
func (e *memEngine) Durable() bool     { return false }
func (e *memEngine) Kind() string      { return "mem" }
func (e *memEngine) Algorithm() string { return e.t.Algorithm().String() }
func (e *memEngine) Cap() int          { return e.t.Cap() }
func (e *memEngine) Len() int          { return e.t.Len() }
func (e *memEngine) Height() int       { return e.t.Height() }
func (e *memEngine) Poisoned() error   { return nil }
func (e *memEngine) Close() error      { return nil }

func (e *memEngine) Stats() EngineStats {
	ts := e.t.Stats()
	return EngineStats{
		Splits: ts.Splits, Restarts: ts.Restarts, Crossings: ts.Crossings,
		ReadRestarts: ts.ReadRestarts, ReadFallbacks: ts.ReadFallbacks,
		StaleHints: ts.StaleHints,
	}
}

// DiskEngineConfig parameterizes NewDiskEngine.
type DiskEngineConfig struct {
	Path       string
	Cap        int // node capacity; default 128
	CacheNodes int // buffer-pool size; default 4096

	// CheckpointOps bounds the oplog: once this many mutations have
	// accumulated past the last committed checkpoint, a background
	// goroutine takes one — concurrent with serving but for its cut and
	// its oplog trim, both bounded by the pool's size, not the tree's
	// — so recovery replay stays bounded. Default 1 << 18 (a ~5.5 MB
	// oplog, sub-second replay); negative disables checkpointing (the
	// oplog grows until Close).
	CheckpointOps int64

	// FS overrides the file layer (failpoint tests). Nil = real files.
	FS pagestore.FS
}

// DiskEngine serves from a durable diskbtree. Operations and Commit run
// concurrently; a background goroutine checkpoints concurrently with
// serving, and Commit only blocks — backpressure — when the replay debt
// reaches twice the threshold. Under a server the caller it blocks is the
// shard's committer, and the connections stop behind it once the commit
// queue is full (see the bound where New sizes the queue).
type DiskEngine struct {
	t       *diskbtree.Tree
	mu      sync.RWMutex // fences Close: RLock for ops and Commit, Lock for Close
	ckptOps int64

	checkpointFails atomic.Int64

	// Background checkpointer.
	kick chan struct{} // non-blocking wake-up, capacity 1
	stop chan struct{}
	done chan struct{}

	// Backpressure: Commit callers at ≥ 2× the threshold wait here until
	// the next checkpoint attempt (success or failure) completes.
	genMu   sync.Mutex
	genCond *sync.Cond
	closed  bool

	// Pause telemetry: how long the last checkpoint held writers and
	// appends, and the maximum observed.
	pauseLastNs atomic.Int64
	pauseMaxNs  atomic.Int64
}

// NewDiskEngine opens (creating or recovering) the tree at cfg.Path.
func NewDiskEngine(cfg DiskEngineConfig) (*DiskEngine, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("server: disk engine needs a path")
	}
	if cfg.CacheNodes == 0 {
		cfg.CacheNodes = 4096
	}
	if cfg.CheckpointOps == 0 {
		cfg.CheckpointOps = 1 << 18
	}
	t, err := diskbtree.Open(cfg.Path, diskbtree.Options{
		Cap:        cfg.Cap,
		CacheNodes: cfg.CacheNodes,
		Durable:    true,
		FS:         cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	e := &DiskEngine{t: t, ckptOps: cfg.CheckpointOps}
	e.genCond = sync.NewCond(&e.genMu)
	if e.ckptOps > 0 {
		e.kick = make(chan struct{}, 1)
		e.stop = make(chan struct{})
		e.done = make(chan struct{})
		go e.checkpointLoop()
	}
	return e, nil
}

// Recovered returns the number of operations replayed at open.
func (e *DiskEngine) Recovered() int { return e.t.Recovered() }

func (e *DiskEngine) Get(key int64) (uint64, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.t.Search(key)
}

func (e *DiskEngine) Put(key int64, val uint64) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.t.Insert(key, val)
}

func (e *DiskEngine) Del(key int64) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.t.Delete(key)
}

// Scan walks the diskbtree leaf chain a leaf run at a time, as
// memEngine.Scan walks cbtree's; checkpoints need no exclusion from it.
func (e *DiskEngine) Scan(lo, hi int64, limit int, dst []query.KV) ([]query.KV, bool, error) {
	if hi <= lo || limit <= 0 {
		return dst, false, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	base, end := len(dst), len(dst)+limit
	more := false
	err := e.t.RangeLeaves(lo, hi-1, func(keys []int64, vals []uint64) bool {
		if room := end - len(dst); len(keys) > room {
			keys, more = keys[:room], true
		}
		for i, k := range keys {
			dst = append(dst, query.KV{Key: k, Val: vals[i]})
		}
		return !more
	})
	if err != nil {
		return dst[:base], false, err
	}
	return dst, more, nil
}

// Commit group-commits the oplog, then — if the replay debt has reached
// the checkpoint threshold — wakes the background checkpointer. It only
// blocks (backpressure) when the debt reaches twice the threshold, so the
// oplog and recovery replay stay bounded even when writes outrun the
// checkpointer.
func (e *DiskEngine) Commit() error {
	e.mu.RLock()
	err := e.t.Commit()
	e.mu.RUnlock()
	if err != nil || e.ckptOps <= 0 || e.lag() < e.ckptOps {
		return err
	}
	e.genMu.Lock()
	for !e.closed && e.t.Poisoned() == nil && e.lag() >= e.ckptOps {
		select {
		case e.kick <- struct{}{}:
		default:
		}
		if e.lag() < 2*e.ckptOps {
			break // kicked; only wait when the debt is critical
		}
		e.genCond.Wait()
	}
	e.genMu.Unlock()
	return nil
}

// lag is the replay debt: mutations appended past the last committed
// checkpoint. Recovery replays exactly this many operations.
func (e *DiskEngine) lag() int64 {
	if j := e.t.Journal(); j != nil {
		return j.SeqAppended() - e.t.CheckpointSeq()
	}
	return 0
}

func (e *DiskEngine) recordPause(ns int64) {
	e.pauseLastNs.Store(ns)
	for {
		max := e.pauseMaxNs.Load()
		if ns <= max || e.pauseMaxNs.CompareAndSwap(max, ns) {
			return
		}
	}
}

// checkpointLoop is the background checkpointer. Every attempt — success
// or failure — wakes blocked committers so backpressure can re-evaluate
// (or observe the poison).
func (e *DiskEngine) checkpointLoop() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case <-e.kick:
		}
		e.runCheckpoint()
		e.genMu.Lock()
		e.genCond.Broadcast()
		e.genMu.Unlock()
	}
}

// runCheckpoint takes one checkpoint. No engine lock is held — serving
// proceeds concurrently, but for the checkpoint's cut and oplog trim.
func (e *DiskEngine) runCheckpoint() {
	if e.lag() < e.ckptOps {
		return
	}
	if pause, err := e.t.Checkpoint(); err != nil {
		e.checkpointFails.Add(1)
	} else {
		e.recordPause(pause)
	}
}

// Journal exposes the engine's oplog journal — the replication hub tails
// it and pins its retention floor.
func (e *DiskEngine) Journal() *journal.Journal { return e.t.Journal() }

// DurableSeq returns the engine's highest fsync-covered global sequence:
// the bound stamped onto acknowledged mutations in replicated mode.
func (e *DiskEngine) DurableSeq() int64 {
	if j := e.t.Journal(); j != nil {
		return j.SeqDurable()
	}
	return 0
}

func (e *DiskEngine) Durable() bool     { return true }
func (e *DiskEngine) Kind() string      { return "disk" }
func (e *DiskEngine) Algorithm() string { return "link-type(disk)" }
func (e *DiskEngine) Cap() int          { return e.t.Cap() }
func (e *DiskEngine) Len() int          { return e.t.Len() }
func (e *DiskEngine) Height() int       { return e.t.Height() }
func (e *DiskEngine) Poisoned() error   { return e.t.Poisoned() }

func (e *DiskEngine) Stats() EngineStats {
	splits, crossings := e.t.Stats()
	app, syn, bytes, commits := e.t.DurabilityStats()
	done, total := e.t.CheckpointProgress()
	slots, free := e.t.StoreSlots()
	st := EngineStats{
		Splits:          splits,
		Crossings:       crossings,
		Recovered:       int64(e.t.Recovered()),
		Appended:        app,
		Synced:          syn,
		OplogBytes:      bytes,
		Fsyncs:          commits,
		Checkpoints:     e.t.Checkpoints(),
		CheckpointLag:   e.lag(),
		CheckpointFails: e.checkpointFails.Load(),
		CkptPauseLastNs: e.pauseLastNs.Load(),
		CkptPauseMaxNs:  e.pauseMaxNs.Load(),
		CkptChunksDone:  done,
		CkptChunksTotal: total,
		StoreSlots:      int64(slots),
		StoreFreeSlots:  int64(free),
	}
	if j := e.t.Journal(); j != nil {
		st.SeqAppended = j.SeqAppended()
		st.SeqDurable = j.SeqDurable()
		st.SeqLowest = j.LowestSeq()
		segs, segBytes := j.RetainedSegments()
		st.RetainedSegs = int64(segs)
		st.RetainedBytes = segBytes
	}
	return st
}

// Close stops the background checkpointer, wakes any blocked
// committers, takes a final checkpoint (unless poisoned) and releases
// the files.
func (e *DiskEngine) Close() error {
	if e.stop != nil {
		close(e.stop)
		<-e.done
	}
	e.genMu.Lock()
	e.closed = true
	e.genCond.Broadcast()
	e.genMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t.Close()
}
