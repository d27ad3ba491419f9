package diskbtree

// Buffer-pool protocol tests: the pool does its I/O outside its lock, so
// what used to be serialized by that lock is now ordered by the slot
// protocol (busy slots, the writing list, the claimer's latch). These
// tests watch the file itself for the orderings the protocol promises.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"btreeperf/internal/pagestore"
)

// watchFS wraps the real FS and watches the slot I/O of one file. It
// records a violation whenever a slot is read while a write of the same
// slot is in flight (the stale-copy read the write-back protocol must
// rule out), counts reads per slot, and can hold slot reads or writes at
// a gate so a test can line goroutines up inside the window. Slots 0 and
// 1, the meta pages, are not watched.
type watchFS struct {
	suffix string // the watched file's name ends with this

	mu      sync.Mutex
	writing map[int64]int // slot → writes in flight
	reads   map[int64]int // slot → reads issued
	stale   []string

	yield     atomic.Bool   // widen every write's window by yielding inside it
	gateRead  chan struct{} // non-nil: page reads announce on entered, then wait here
	gateWrite chan struct{} // non-nil: page writes announce on entered, then wait here
	entered   chan int64    // slots of gated calls, in order of arrival
}

func newWatchFS(suffix string) *watchFS {
	return &watchFS{suffix: suffix, writing: map[int64]int{}, reads: map[int64]int{}, entered: make(chan int64, 64)}
}

func (fs *watchFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := pagestore.OSFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, fs.suffix) {
		return f, err
	}
	return &watchFile{File: f, fs: fs}, nil
}

func (fs *watchFS) Rename(oldpath, newpath string) error {
	return pagestore.OSFS.Rename(oldpath, newpath)
}

func (fs *watchFS) Remove(name string) error { return os.Remove(name) }

func (fs *watchFS) readsOf(page int64) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reads[page]
}

func (fs *watchFS) violations() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stale
}

type watchFile struct {
	pagestore.File
	fs *watchFS
}

func (f *watchFile) ReadAt(p []byte, off int64) (int, error) {
	page := off / pagestore.PageSize
	fs := f.fs
	fs.mu.Lock()
	if page > 1 {
		fs.reads[page]++
		if fs.writing[page] > 0 {
			fs.stale = append(fs.stale, fmt.Sprintf("page %d read while its write was in flight", page))
		}
	}
	gate := fs.gateRead
	fs.mu.Unlock()
	if gate != nil && page > 1 {
		fs.entered <- page
		<-gate
	}
	return f.File.ReadAt(p, off)
}

func (f *watchFile) WriteAt(p []byte, off int64) (int, error) {
	page := off / pagestore.PageSize
	fs := f.fs
	fs.mu.Lock()
	fs.writing[page]++
	gate := fs.gateWrite
	fs.mu.Unlock()
	if gate != nil && page > 1 {
		fs.entered <- page
		<-gate
	}
	if fs.yield.Load() {
		runtime.Gosched()
	}
	n, err := f.File.WriteAt(p, off)
	fs.mu.Lock()
	fs.writing[page]--
	fs.mu.Unlock()
	return n, err
}

// pinsOf reports how many pins the slot answering for page id holds, or
// -1 when no slot does.
func pinsOf(c *cache, id pagestore.PageID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.find(id); s >= 0 {
		return int(c.frames[s].pins)
	}
	return -1
}

// leafOf returns the page id of the leaf covering key.
func leafOf(t *testing.T, tr *Tree, key int64) pagestore.PageID {
	t.Helper()
	n, _, err := tr.descend(1, key, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := n.id
	tr.rUnlatch(n)
	return id
}

// buildSpill returns a tree of n keys (key 10·i → value i) over fs, in a
// pool of the given size, closed and reopened so the pool starts cold.
func buildSpill(t *testing.T, fs pagestore.FS, n, cap, pool int) *Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.db")
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i)*10, uint64(i)
	}
	tr, err := BulkLoad(path, Options{Cap: cap, CacheNodes: pool, FS: fs}, keys, vals, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err = Open(path, Options{Cap: cap, CacheNodes: pool, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestPoolOneReadPerPage: two threads that miss on one page cause one
// read — the second finds the claimed slot, waits on its latch, and hits.
func TestPoolOneReadPerPage(t *testing.T) {
	fs := newWatchFS("tree.db")
	tr := buildSpill(t, fs, 2000, 8, 8)
	const key = 10 * 1234
	leaf := leafOf(t, tr, key)
	// Push the leaf out of the pool again with reads elsewhere.
	for k := int64(0); pinsOf(tr.cache, leaf) >= 0; k += 70 {
		if _, _, err := tr.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	slot := int64(tr.store.Slot(leaf))
	before := fs.readsOf(slot)

	gate := make(chan struct{})
	fs.mu.Lock()
	fs.gateRead = gate
	fs.mu.Unlock()
	var wg sync.WaitGroup
	search := func() {
		defer wg.Done()
		if v, ok, err := tr.Search(key); err != nil || !ok || v != 1234 {
			t.Errorf("Search = %d,%v,%v", v, ok, err)
		}
	}
	wg.Add(2)
	go search()
	// The first searcher's descent reads are gated too: let them through
	// until it is parked inside the read of the leaf itself.
	for page := <-fs.entered; page != slot; page = <-fs.entered {
		gate <- struct{}{}
	}
	go search()
	for pinsOf(tr.cache, leaf) < 2 { // until the second searcher has found the busy slot
		select {
		case <-fs.entered: // a read of its own, on the way down
			gate <- struct{}{}
		default:
			runtime.Gosched()
		}
	}
	fs.mu.Lock()
	fs.gateRead = nil
	fs.mu.Unlock()
	close(gate)
	wg.Wait()
	if got := fs.readsOf(slot) - before; got != 1 {
		t.Errorf("leaf page read %d times for two concurrent misses, want 1", got)
	}
}

// TestPoolWriteBackBeforeReread: a page evicted dirty and re-read at once
// must show the evicted contents — the re-read waits for the write-back
// to land instead of reading the file's stale copy.
func TestPoolWriteBackBeforeReread(t *testing.T) {
	fs := newWatchFS("tree.db")
	tr := buildSpill(t, fs, 2000, 8, 8)
	const key = 10 * 777
	if _, err := tr.Insert(key, 4242); err != nil { // the leaf is now dirty in the pool
		t.Fatal(err)
	}
	leaf := leafOf(t, tr, key)

	gate := make(chan struct{})
	fs.mu.Lock()
	fs.gateWrite = gate
	fs.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // evict the leaf: reads elsewhere until its write-back is at the gate
		defer wg.Done()
		for k := int64(0); k < 20000; k += 70 {
			if _, _, err := tr.Search(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The write-back's slot is chosen before its write reaches the gate.
	for page := <-fs.entered; page != int64(tr.store.Slot(leaf)); page = <-fs.entered {
		gate <- struct{}{} // some other dirty page: let it land
	}
	// The leaf's write-back is in flight and held. Re-read it now.
	reread := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(reread)
		if v, ok, err := tr.Search(key); err != nil || !ok || v != 4242 {
			t.Errorf("re-read during write-back = %d,%v,%v, want the evicted contents 4242", v, ok, err)
		}
	}()
	for waiting := false; !waiting; { // until the re-reader waits on the claimer's slot
		select {
		case <-reread:
			t.Error("the re-read did not wait for the write-back")
			waiting = true
		default:
			runtime.Gosched()
			waiting = pinsOf(tr.cache, leaf) >= 2
		}
	}
	fs.mu.Lock()
	fs.gateWrite = nil
	fs.mu.Unlock()
	close(gate)
	wg.Wait()
	for _, v := range fs.violations() {
		t.Error(v)
	}
}

// TestPoolExhausted: with every slot pinned a miss fails with the pool
// exhausted error, claims nothing, and the pool works again once a pin
// is dropped.
func TestPoolExhausted(t *testing.T) {
	tr := buildSpill(t, nil, 500, 8, 4)
	c := tr.cache
	var held []node
	for id := pagestore.PageID(1); len(held) < 4; id++ {
		n, err := c.get(id)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, n)
	}
	if _, err := c.get(pagestore.PageID(20)); err == nil || !strings.Contains(err.Error(), "buffer pool exhausted") {
		t.Fatalf("get with all 4 slots pinned = %v, want the exhausted error", err)
	}
	c.put(held[3], false)
	n, err := c.get(pagestore.PageID(20))
	if err != nil {
		t.Fatalf("get after dropping a pin: %v", err)
	}
	c.put(n, false)
	for _, h := range held[:3] {
		c.put(h, false)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolStress runs eight goroutines of mixed operations and a
// checkpoint loop against a durable tree dozens of times the size of its
// 16-slot pool, with every page write's window widened. Writers check
// every result against their own oracle; the file watcher checks that no
// page was ever read while its write-back was in flight. Pins are
// bounded by construction — four writers hold at most two (a split), four
// readers one, the checkpoint walk two — so the pool cannot run dry.
func TestPoolStress(t *testing.T) {
	const (
		writers, readers = 4, 4
		stable           = 1500 // keys 8·i+7, never touched after the prefill
		opsPer           = 3000
	)
	fs := newWatchFS("tree.db")
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(path, Options{Cap: 6, CacheNodes: 16, Durable: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < stable; i++ {
		if _, err := tr.Insert(8*i+7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.yield.Store(true)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // checkpoints: leaf-chain walks and oplog rotations under load
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tr.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var workers sync.WaitGroup
	oracles := make([]map[int64]uint64, writers)
	for w := 0; w < writers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			src := rand.New(rand.NewPCG(uint64(w)*977+5, 0))
			mine := map[int64]uint64{}
			oracles[w] = mine
			for i := 0; i < opsPer; i++ {
				k := 8*src.Int64N(stable) + int64(w) // interleaved with the stable keys
				switch src.IntN(4) {
				case 0, 1:
					v := src.Uint64()
					fresh, err := tr.Insert(k, v)
					if _, had := mine[k]; err != nil || fresh == had {
						t.Errorf("writer %d: Insert(%d) = %v,%v, had %v", w, k, fresh, err, had)
						return
					}
					mine[k] = v
				case 2:
					ok, err := tr.Delete(k)
					if _, had := mine[k]; err != nil || ok != had {
						t.Errorf("writer %d: Delete(%d) = %v,%v, had %v", w, k, ok, err, had)
						return
					}
					delete(mine, k)
				case 3:
					got, ok, err := tr.Search(k)
					if want, had := mine[k]; err != nil || ok != had || got != want {
						t.Errorf("writer %d: Search(%d) = %d,%v,%v want %d,%v", w, k, got, ok, err, want, had)
						return
					}
				}
				if i%64 == 63 {
					if err := tr.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		workers.Add(1)
		go func(r int) {
			defer workers.Done()
			src := rand.New(rand.NewPCG(uint64(r)*131+3, 0))
			for i := 0; i < opsPer; i++ {
				j := src.Int64N(stable)
				if got, ok, err := tr.Search(8*j + 7); err != nil || !ok || got != uint64(j) {
					t.Errorf("reader %d: stable key %d = %d,%v,%v", r, 8*j+7, got, ok, err)
					return
				}
				// A writer's key: any answer but an error is right.
				if _, _, err := tr.Search(8*j + int64(r)); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	want := stable
	for w, mine := range oracles {
		want += len(mine)
		for k, v := range mine {
			if got, ok, err := tr.Search(k); err != nil || !ok || got != v {
				t.Fatalf("writer %d: final Search(%d) = %d,%v,%v want %d", w, k, got, ok, err, v)
			}
		}
	}
	if tr.Len() != want {
		t.Errorf("Len = %d, oracles hold %d", tr.Len(), want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st := tr.CacheStats(); st.Evictions < 1000 || tr.Height() < 4 {
		t.Errorf("no pressure: %+v, height %d", st, tr.Height())
	}
	for _, v := range fs.violations() {
		t.Error(v)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// The last word: what a reopen recovers is what the oracles hold.
	rec, err := Open(path, Options{Cap: 6, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != want {
		t.Errorf("reopened Len = %d, want %d", rec.Len(), want)
	}
}
