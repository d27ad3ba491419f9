package diskbtree

// Incremental concurrent checkpointing. A checkpoint walks the live tree
// in bounded key chunks — short shared latches on the leaf chain, fully
// concurrent with readers and writers — and streams the keys into a
// fresh, compact pagestore image built bottom-up in a sidecar file
// (path + ".ckpt.tmp"). When the walk finishes, the image is fsync'd and
// atomically installed: journal.Rotate renames it over path + ".ckpt"
// and rebases the oplog to the walk's start sequence S inside one
// bounded blocking window. Recovery then is: copy the image over the
// live file and replay the oplog suffix > S.
//
// Why the fuzzy walk is correct (ARIES-style): S is the oplog head when
// the walk begins, and every tree mutation strictly precedes its oplog
// append — so every operation with sequence ≤ S is fully visible to the
// walk. Operations racing with the walk (sequence > S) may or may not be
// captured, but all of them stay in the rotated oplog and replay
// idempotently (insert/delete have set semantics), in log order, on top
// of the image. Keys never move left in a Lehman–Yao tree (splits move
// them right, there is no merging), so a strictly increasing key cursor
// sees every persistent key exactly once and the streamed keys arrive in
// strictly ascending order — exactly what the bottom-up builder needs.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"btreeperf/internal/pagestore"
)

const (
	// ImageSuffix is appended to the tree path to name the installed
	// checkpoint image; ImageTmpSuffix names the in-progress build.
	ImageSuffix    = ".ckpt"
	ImageTmpSuffix = ".ckpt.tmp"

	// syncChunkKeys is the walk chunk used by synchronous full
	// checkpoints (Sync, Close, recovery bootstrap).
	syncChunkKeys = 8192

	// imageFillNum/imageFillDen give the leaf/internal fill factor of a
	// built image (3/4 leaves room for post-recovery inserts without an
	// immediate split wave).
	imageFillNum, imageFillDen = 3, 4
)

// pendingNode is a node of the image still accepting entries: its page
// id is pre-allocated so the previous node of the level can point its
// right link here before being written. One pendingNode serves a level
// for the whole build: sealing writes its page out and restarts it, in
// place, as its own successor.
type pendingNode struct {
	n   node
	id  pagestore.PageID
	min int64
}

// imageBuilder streams strictly ascending key/value pairs into a compact
// bottom-up B⁺-tree on pages it allocates from store: a checkpoint's
// fresh sidecar, or the live file of an empty tree being bulk-loaded.
// levels[0] is the leaf level; a node is written out the moment its
// successor on the level materializes (resolving its right link and high
// key), so memory use is one pending node per level and one page buffer.
type imageBuilder struct {
	store  *pagestore.Store
	cap    int
	per    int // items a node is filled to
	levels []*pendingNode
	count  int64
	page   [pagestore.PageSize]byte // every node is encoded and written from here
}

func newImageBuilder(store *pagestore.Store, cap, per int) *imageBuilder {
	return &imageBuilder{store: store, cap: cap, per: max(per, 2)}
}

// level returns the pending node at level index lvl, starting the level
// (with min as its first node's minimum) when the build first reaches it.
func (b *imageBuilder) level(lvl int, min int64) (*pendingNode, error) {
	if lvl < len(b.levels) {
		return b.levels[lvl], nil
	}
	id, err := b.store.Allocate()
	if err != nil {
		return nil, err
	}
	p := &pendingNode{n: newNode(lvl+1, b.per), id: id, min: min}
	b.levels = append(b.levels, p)
	return p, nil
}

// write encodes n into the builder's page buffer and writes it as page id.
func (b *imageBuilder) write(id pagestore.PageID, n node) error {
	n.encode(b.page[:])
	return b.store.WritePage(id, b.page[:])
}

// addRun appends the next keys of the ascending stream, a leaf-sized
// piece at a time.
func (b *imageBuilder) addRun(keys []int64, vals []uint64) error {
	b.count += int64(len(keys))
	for len(keys) > 0 {
		p, err := b.level(0, keys[0])
		if err != nil {
			return err
		}
		if p.n.items() == b.per {
			if err := b.seal(0, keys[0]); err != nil {
				return err
			}
		}
		at := p.n.items()
		k := copy(p.n.k[at:b.per], keys)
		copy(p.n.p[at:], vals[:k])
		p.n.n += uint16(k)
		keys, vals = keys[k:], vals[k:]
	}
	return nil
}

// seal writes out the pending node at level index lvl — right link to a
// freshly allocated successor, high key = the successor's minimum —
// promotes its (id, min) into the parent level, and restarts it as that
// successor.
func (b *imageBuilder) seal(lvl int, nextMin int64) error {
	p := b.levels[lvl]
	next, err := b.store.Allocate()
	if err != nil {
		return err
	}
	p.n.right = next
	p.n.high, p.n.hasHigh = nextMin, true
	if err := b.write(p.id, p.n); err != nil {
		return err
	}
	if err := b.promote(lvl+1, p.id, p.min); err != nil {
		return err
	}
	p.n.reset(int(p.n.level))
	p.id, p.min = next, nextMin
	return nil
}

// promote registers a finished child in the pending parent at level
// index lvl, creating or sealing the parent as needed.
func (b *imageBuilder) promote(lvl int, childID pagestore.PageID, childMin int64) error {
	p, err := b.level(lvl, childMin)
	if err != nil {
		return err
	}
	if p.n.items() == b.per {
		if err := b.seal(lvl, childMin); err != nil {
			return err
		}
	}
	if at := p.n.items(); at > 0 {
		p.n.k[at-1] = childMin
	}
	p.n.p[p.n.n] = uint64(childID)
	p.n.n++
	return nil
}

// flushSpine writes out the pending spine bottom-up (each pending node
// is the rightmost of its level: right link 0, infinite high key) and
// returns the root's page.
func (b *imageBuilder) flushSpine() (pagestore.PageID, error) {
	if len(b.levels) == 0 {
		// Empty tree: a lone empty leaf root, like a fresh Open.
		id, err := b.store.Allocate()
		if err != nil {
			return 0, err
		}
		return id, b.write(id, newNode(1, 0))
	}
	for lvl := 0; ; lvl++ {
		p := b.levels[lvl]
		if err := b.write(p.id, p.n); err != nil {
			return 0, err
		}
		if lvl == len(b.levels)-1 {
			return p.id, nil
		}
		// May seal a full parent and grow the spine; the loop bound
		// is re-read each iteration.
		if err := b.promote(lvl+1, p.id, p.min); err != nil {
			return 0, err
		}
	}
}

// finish flushes the spine, stamps the meta page (root, key count,
// capacity, and the checkpoint sequence) and fsyncs the image. The
// caller still owns the store and must close it.
func (b *imageBuilder) finish(seq int64) error {
	root, err := b.flushSpine()
	if err != nil {
		return err
	}
	var ud [64]byte
	binary.LittleEndian.PutUint64(ud[0:8], uint64(b.count))
	binary.LittleEndian.PutUint64(ud[8:16], uint64(b.cap))
	binary.LittleEndian.PutUint64(ud[16:24], uint64(seq))
	if err := b.store.SetUserData(ud); err != nil {
		return err
	}
	if err := b.store.SetRoot(root); err != nil {
		return err
	}
	return b.store.Sync()
}

// ErrCheckpointStopped is returned by Checkpoint when its between callback
// stopped the walk; the build was discarded and nothing was installed.
var ErrCheckpointStopped = errors.New("diskbtree: checkpoint stopped by its caller")

// checkpoint is one incremental checkpoint in progress.
type checkpoint struct {
	t      *Tree
	seq    int64 // oplog head when the walk began
	b      *imageBuilder
	cursor int64 // the walk resumes at the first key >= cursor
	keys   []int64
	vals   []uint64 // the chunk in flight, reused from step to step
}

// Checkpoint takes one incremental checkpoint of a durable tree, start to
// finish: it captures the oplog head S and opens the sidecar image build,
// walks the live tree in chunks of chunkKeys keys, completes and fsyncs the
// image, and installs it. Every operation sequenced ≤ S is guaranteed into
// the image; later ones stay in the rotated oplog. between, if non-nil,
// runs before every chunk with the number of chunks already walked — where
// the caller yields, paces, publishes progress — and once more after the
// last, with the total, before the image is completed and fsynced.
// Returning false stops the checkpoint with ErrCheckpointStopped. On that,
// and on any error, the build is discarded (always safe: nothing is
// visible before the install).
//
// One goroutine drives a checkpoint; the walk runs fully concurrently with
// tree readers and writers, and only the install's bounded window blocks
// appends. It returns that pause in nanoseconds.
func (t *Tree) Checkpoint(chunkKeys int, between func(chunksDone int) bool) (pauseNs int64, err error) {
	if err := t.Poisoned(); err != nil {
		return 0, err
	}
	if t.jnl == nil {
		return 0, fmt.Errorf("diskbtree: checkpoint of a non-durable tree")
	}
	tmp := t.path + ImageTmpSuffix
	pagestore.RemoveFile(t.fs, tmp) // debris from an interrupted build
	st, err := pagestore.OpenFS(tmp, t.fs)
	if err != nil {
		return 0, t.poison(err)
	}
	c := &checkpoint{
		t:      t,
		seq:    t.jnl.SeqAppended(),
		b:      newImageBuilder(st, t.cap, t.cap*imageFillNum/imageFillDen),
		cursor: math.MinInt64,
	}
	err = c.build(max(chunkKeys, 1), between)
	if cerr := st.Close(); cerr != nil && err == nil {
		err = c.fail(fmt.Errorf("diskbtree: checkpoint finalize: %w", cerr))
	}
	if err == nil {
		// Install: journal.Rotate renames the image over path+".ckpt" (the
		// commit point) and rebases the oplog to S inside one bounded
		// blocking window — the only pause the checkpoint imposes,
		// independent of tree size.
		pauseNs, err = t.jnl.Rotate(c.seq, func() error {
			return t.fs.Rename(tmp, t.path+ImageSuffix)
		})
		err = t.poison(err)
	}
	if err != nil {
		pagestore.RemoveFile(t.fs, tmp)
		return 0, err
	}
	t.ckptSeq.Store(c.seq)
	t.checkpoints.Add(1)
	return pauseNs, nil
}

// build walks the tree into the image and completes it: flushes the
// builder's spine, stamps the meta page with S and fsyncs the sidecar. No
// tree latches are held outside step.
func (c *checkpoint) build(chunkKeys int, between func(chunksDone int) bool) error {
	for chunks, done := 0, false; ; chunks++ {
		if between != nil && !between(chunks) {
			return ErrCheckpointStopped
		}
		if done {
			break
		}
		var err error
		if done, err = c.step(chunkKeys); err != nil {
			return err
		}
	}
	if err := c.b.finish(c.seq); err != nil {
		return c.fail(fmt.Errorf("diskbtree: checkpoint finalize: %w", err))
	}
	return nil
}

// fail poisons the tree and its journal fail-stop: a checkpoint that
// cannot reach disk (ENOSPC, I/O error) leaves durability unprovable, so
// nothing may be acknowledged afterwards.
func (c *checkpoint) fail(err error) error {
	c.t.jnl.Poison(err)
	return c.t.poison(err)
}

// step walks one bounded chunk of the live tree — at least maxKeys keys,
// rounded up to the containing leaf — holding only short shared latches
// on the leaf chain, and streams it into the image. It reports whether
// the walk has reached the right edge of the tree.
func (c *checkpoint) step(maxKeys int) (bool, error) {
	t := c.t
	if err := t.Poisoned(); err != nil {
		return false, err
	}
	// Collect under the latches, feed the builder outside them: image I/O
	// must not extend the window in which writers to a leaf are blocked.
	c.keys, c.vals = c.keys[:0], c.vals[:0]
	err := t.rangeLeaves(c.cursor, math.MaxInt64, func(keys []int64, vals []uint64) bool {
		c.keys = append(c.keys, keys...)
		c.vals = append(c.vals, vals...)
		return len(c.keys) < maxKeys
	})
	if err != nil {
		return false, t.poison(err)
	}
	if err := c.b.addRun(c.keys, c.vals); err != nil {
		return false, c.fail(fmt.Errorf("diskbtree: checkpoint image write: %w", err))
	}
	// A short chunk means the walk ran off the right edge. Otherwise
	// resume just past the last key taken: keys never move left, so
	// everything at or below it is behind the walk for good.
	n := len(c.keys)
	if n < maxKeys || c.keys[n-1] == math.MaxInt64 {
		return true, nil
	}
	c.cursor = c.keys[n-1] + 1
	return false, nil
}

// CheckpointNow builds and installs a full checkpoint synchronously,
// walking the tree in syncChunkKeys-sized chunks (Sync, Close, recovery
// bootstrap).
func (t *Tree) CheckpointNow() (pauseNs int64, err error) {
	return t.Checkpoint(syncChunkKeys, nil)
}

// CheckpointSeq returns the sequence of the last installed checkpoint
// image; SeqAppended − CheckpointSeq is the replay debt a crash would
// incur (the "mutations behind" telemetry).
func (t *Tree) CheckpointSeq() int64 { return t.ckptSeq.Load() }

// Checkpoints returns the number of images installed since Open.
func (t *Tree) Checkpoints() int64 { return t.checkpoints.Load() }
