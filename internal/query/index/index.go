// Package index maintains one shard's secondary index: value → sorted
// primary keys, kept in step with the primary tree by wrapping each
// Put/Del so the tree mutation and the index update commit as one
// per-key atomic step.
//
// # Consistency
//
// Several goroutines mutate one shard's keys — a durable shard's worker
// pool, a mem server's connections — so "in step" needs an ordering
// guarantee: if put(k,v1) and put(k,v2) race, the index must end up
// describing whichever write the tree kept. The
// index serializes same-key updates with a striped key lock held across
// both the tree operation and the postings update; updates to different
// keys only contend on the short critical section of the postings map
// itself (one RWMutex). Lock order is always stripe → postings, so the
// two layers cannot deadlock. Lookups take only the postings read lock:
// they see a per-key-consistent map (never a value the tree did not
// store for that key), though — like scans — they are not a snapshot
// across keys.
//
// # Durability
//
// The index holds no log of its own. The primary oplog already journals
// every Put/Del, and the index is a pure function of the primary tree's
// contents, so after a kill -9 the serving layer recovers the tree from
// its journal and rebuilds the index from the recovered tree (Add). A
// separate index journal would double the fsync traffic to protect
// state that recovery can already reconstruct exactly.
package index

import (
	"sort"
	"sync"
)

// stripes is the key-lock stripe count; power of two so the stripe of a
// key is a mask, sized well past a shard's worker count.
const stripes = 64

// Index is one shard's value → primary-key postings.
type Index struct {
	stripe [stripes]sync.Mutex

	mu    sync.RWMutex
	post  map[uint64][]int64 // value → ascending primary keys
	byKey map[int64]uint64   // primary key → indexed value
}

// New returns an empty index.
func New() *Index {
	return &Index{
		post:  make(map[uint64][]int64),
		byKey: make(map[int64]uint64),
	}
}

func stripeOf(key int64) int {
	h := uint64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & (stripes - 1))
}

// insertSorted adds k to the ascending slice keys (no-op if present).
func insertSorted(keys []int64, k int64) []int64 {
	i := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
	if i < len(keys) && keys[i] == k {
		return keys
	}
	keys = append(keys, 0)
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// removeSorted deletes k from the ascending slice keys.
func removeSorted(keys []int64, k int64) []int64 {
	i := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
	if i >= len(keys) || keys[i] != k {
		return keys
	}
	return append(keys[:i], keys[i+1:]...)
}

// link records key→val in the postings; call with ix.mu held.
func (ix *Index) link(key int64, val uint64) {
	if old, ok := ix.byKey[key]; ok {
		if old == val {
			return
		}
		ix.unlink(key, old)
	}
	ix.post[val] = insertSorted(ix.post[val], key)
	ix.byKey[key] = val
}

// unlink removes key from val's postings; call with ix.mu held.
func (ix *Index) unlink(key int64, val uint64) {
	if rest := removeSorted(ix.post[val], key); len(rest) > 0 {
		ix.post[val] = rest
	} else {
		delete(ix.post, val)
	}
	delete(ix.byKey, key)
}

// Put applies the primary-tree put (the closure) and, if it succeeded,
// re-points key's posting at val — all under key's stripe lock, so a
// racing Put/Del on the same key cannot leave the index describing a
// value the tree did not keep. The closure's results pass through.
func (ix *Index) Put(key int64, val uint64, apply func() (bool, error)) (bool, error) {
	s := &ix.stripe[stripeOf(key)]
	s.Lock()
	defer s.Unlock()
	ok, err := apply()
	if err != nil {
		return ok, err
	}
	ix.mu.Lock()
	ix.link(key, val)
	ix.mu.Unlock()
	return ok, err
}

// Del applies the primary-tree delete and, if the key was present,
// removes its posting, under the same stripe discipline as Put.
func (ix *Index) Del(key int64, apply func() (bool, error)) (bool, error) {
	s := &ix.stripe[stripeOf(key)]
	s.Lock()
	defer s.Unlock()
	ok, err := apply()
	if err != nil {
		return ok, err
	}
	ix.mu.Lock()
	if old, had := ix.byKey[key]; had {
		ix.unlink(key, old)
	}
	ix.mu.Unlock()
	return ok, err
}

// Add records key→val without running a tree operation — the rebuild
// path: the serving layer scans the recovered primary tree into a fresh
// index before taking traffic. Safe for concurrent use.
func (ix *Index) Add(key int64, val uint64) {
	s := &ix.stripe[stripeOf(key)]
	s.Lock()
	defer s.Unlock()
	ix.mu.Lock()
	ix.link(key, val)
	ix.mu.Unlock()
}

// Lookup appends to dst up to limit primary keys whose indexed value is
// val and whose key is >= after, in ascending order, reporting whether
// more remain. The (after, limit) shape is exactly what the cross-shard
// page merge needs to resume a paged lookup from a continuation token.
func (ix *Index) Lookup(val uint64, after int64, limit int, dst []int64) (keys []int64, more bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	all := ix.post[val]
	i := sort.Search(len(all), func(j int) bool { return all[j] >= after })
	n := len(all) - i
	if n > limit {
		n = limit
		more = true
	}
	return append(dst, all[i:i+n]...), more
}

// Len returns the number of indexed primary keys.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byKey)
}
