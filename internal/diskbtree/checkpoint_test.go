package diskbtree

// Checkpoint contract tests: the file at rest and while running, the
// meta-page commit point, the cut's barrier and where the cut's sequence
// is read, and crashes under concurrent writers and checkpoints.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/pagestore"
)

// mapPerPage mirrors the store's map page capacity: (4092 − 8) / 4.
const mapPerPage = 1021

// mapPagesOf is the number of map pages a store of pages page ids takes.
func mapPagesOf(pages int) int { return (pages + mapPerPage - 1) / mapPerPage }

// churn runs n random inserts and deletes over keys [0, span) against tr
// and model, checkpointing every syncEvery operations and calling at
// with each checkpoint's number.
func churn(t *testing.T, tr *Tree, model map[int64]uint64, seed uint64, n, span, syncEvery int, at func(int)) {
	t.Helper()
	src := rand.New(rand.NewPCG(seed, 3))
	for i := 0; i < n; i++ {
		k := src.Int64N(int64(span))
		var err error
		if src.IntN(4) > 0 {
			v := src.Uint64()
			_, err = tr.Insert(k, v)
			model[k] = v
		} else {
			_, err = tr.Delete(k)
			delete(model, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%syncEvery == syncEvery-1 {
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if at != nil {
				at(i / syncEvery)
			}
		}
	}
}

// holdsModel checks tr's invariants and that it holds exactly model.
func holdsModel(t *testing.T, tr *Tree, model map[int64]uint64) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(model))
	}
	for k, want := range model {
		if got, ok, err := tr.Search(k); err != nil || !ok || got != want {
			t.Fatalf("key %d = %d,%v,%v, want %d", k, got, ok, err, want)
		}
	}
}

// TestFileBounds: while running with checkpoints the file stays within
// two copies of the tree plus two maps — each interval rewrites nearly
// every page, and a commit frees the previous checkpoint's copies — and a
// clean Close leaves exactly one copy plus one map and the two meta
// slots.
func TestFileBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 32, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]uint64{}
	highWater := 0
	churn(t, tr, model, 1, 30000, 6000, 1500, func(int) {
		pages := tr.store.Pages()
		slots, free := tr.StoreSlots()
		if bound := 2 + 2*(pages-1) + 2*mapPagesOf(pages); slots > bound {
			t.Fatalf("running file is %d slots (%d free) for %d pages: more than the bound %d", slots, free, pages-1, bound)
		}
		highWater = max(highWater, slots)
	})
	pages := tr.store.Pages()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(pages-1+mapPagesOf(pages)+2) * pagestore.PageSize
	if st.Size() > want {
		t.Fatalf("closed file is %d bytes, want at most (%d pages + %d map pages + 2 meta) × 4096 = %d",
			st.Size(), pages-1, mapPagesOf(pages), want)
	}
	t.Logf("%d pages: running high-water %d slots, %d bytes at rest", pages-1, highWater, st.Size())
	re, err := Open(path, Options{Cap: 8, CacheNodes: 32, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 0 {
		t.Fatalf("reopen after a clean close replayed %d ops", re.Recovered())
	}
	holdsModel(t, re, model)
}

// tearFS tears every write to the tree file's meta slots once armed: half
// the page lands, and the write fails.
type tearFS struct {
	pagestore.FS
	armed atomic.Bool
}

type tearFile struct {
	pagestore.File
	fs *tearFS
}

func (fs *tearFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, "tree.db") {
		return f, err
	}
	return &tearFile{File: f, fs: fs}, nil
}

func (fs *tearFS) Remove(name string) error { return pagestore.RemoveFile(fs.FS, name) }

func (f *tearFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.armed.Load() && off < 2*pagestore.PageSize {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, pagestore.ErrInjected
	}
	return f.File.WriteAt(p, off)
}

// TestTornMetaRecoversOlder tears the newer meta page's write — the
// commit point — so the checkpoint fails and poisons the tree; recovery
// opens the older checkpoint, whose slots nothing overwrote, and replays
// the oplog, which the failed commit never rotated.
func TestTornMetaRecoversOlder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	fs := &tearFS{FS: pagestore.OSFS}
	tr, err := Open(path, Options{Cap: 6, CacheNodes: 8, Durable: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]uint64{}
	churn(t, tr, model, 2, 1000, 800, 400, nil) // 200 ops past the last checkpoint
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	if err := tr.Sync(); !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("Sync over a torn meta write = %v", err)
	}
	if _, err := tr.Insert(1, 1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Insert after a failed commit = %v, want ErrPoisoned", err)
	}
	tr.Close()

	re, err := Open(path, Options{Cap: 6, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() == 0 {
		t.Fatal("nothing replayed: recovery did not fall back to the older checkpoint")
	}
	holdsModel(t, re, model)
}

// cutTree returns a durable tree of keys 0, 10, …, 1990, checkpointed:
// every page clean, so the cut marks nothing and the pages a mutation
// changes next are ones the cut took from their slots.
func cutTree(t *testing.T) (*Tree, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 64, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if _, err := tr.Insert(i*10, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// recoveredHas crashes tr (its files as they stand), recovers, and checks
// that key holds val.
func recoveredHas(t *testing.T, tr *Tree, path string, key int64, val uint64) {
	t.Helper()
	re, err := Open(crash(t, tr, path), Options{Cap: 8, CacheNodes: 64, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := re.Search(key); err != nil || !ok || got != val {
		t.Fatalf("acked key %d = %d,%v,%v after recovery, want %d", key, got, ok, err, val)
	}
}

// TestCutHoldsWriters: a writer that arrives while the cut is held waits
// for its release — so its operation, sequenced after the cut's S, is
// replayed from the oplog — rather than changing a page the cut already
// took from its slot while its record still counts as covered.
func TestCutHoldsWriters(t *testing.T) {
	tr, path := cutTree(t)
	var finishedHeld atomic.Bool
	done := make(chan error, 1)
	testHookCut = func(held bool) {
		if !held {
			if err := <-done; err != nil {
				t.Error(err)
			}
			return
		}
		go func() {
			_, err := tr.Insert(505, 77)
			if err == nil {
				err = tr.Commit()
			}
			done <- err
		}()
		time.Sleep(50 * time.Millisecond) // ample for an insert and a commit
		finishedHeld.Store(len(done) > 0)
	}
	defer func() { testHookCut = nil }()
	if _, err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if finishedHeld.Load() {
		t.Error("an insert and its commit completed while the cut was held")
	}
	recoveredHas(t, tr, path, 505, 77)
}

// TestCutReadsSeqInsideBarrier: the cut's oplog head is read before the
// barrier is released; an operation acked right after the release is
// sequenced past it and replayed, not counted as covered by a checkpoint
// that does not hold it.
func TestCutReadsSeqInsideBarrier(t *testing.T) {
	tr, path := cutTree(t)
	testHookCut = func(held bool) {
		if held {
			return
		}
		if _, err := tr.Insert(505, 77); err != nil {
			t.Error(err)
		}
		if err := tr.Commit(); err != nil {
			t.Error(err)
		}
	}
	defer func() { testHookCut = nil }()
	if _, err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recoveredHas(t, tr, path, 505, 77)
}

// TestCrashUnderConcurrentCheckpoints freezes the files at a random
// syscall while writers insert and commit and a checkpointer loops, so the
// crash lands among cuts taken under load, cut pages saved by writers and
// by evictions, and commits. Every acked key must survive.
func TestCrashUnderConcurrentCheckpoints(t *testing.T) {
	const writers, perWriter = 3, 400
	run := func(fs pagestore.FS, path string) (acked [writers][]int64) {
		tr, err := Open(path, Options{Cap: 5, CacheNodes: 16, Durable: true, FS: fs})
		if err != nil {
			return
		}
		defer tr.Close()
		var wg sync.WaitGroup
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Checkpoint(); err != nil {
					return
				}
			}
		}()
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range perWriter {
					k := int64(i*writers + w)
					if _, err := tr.Insert(k, uint64(k)+1); err != nil {
						return
					}
					if err := tr.Commit(); err != nil {
						return
					}
					acked[w] = append(acked[w], k)
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-stopped
		return
	}
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	run(probe, filepath.Join(t.TempDir(), "tree.db"))
	total := probe.Ops()
	src := rand.New(rand.NewPCG(7, 7))
	for trial := range 12 {
		n := 1 + src.Int64N(total)
		t.Run(fmt.Sprintf("crash%d", trial), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tree.db")
			acked := run(pagestore.NewFailFS(nil, pagestore.FailPlan{CrashAt: n}), path)
			re, err := Open(path, Options{Cap: 5, CacheNodes: 16, Durable: true})
			if err != nil {
				t.Fatalf("crash at syscall %d: reopen: %v", n, err)
			}
			defer re.Close()
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("crash at syscall %d: %v", n, err)
			}
			for _, keys := range acked {
				for _, k := range keys {
					if v, ok, err := re.Search(k); err != nil || !ok || v != uint64(k)+1 {
						t.Fatalf("crash at syscall %d: acked key %d = %d,%v,%v", n, k, v, ok, err)
					}
				}
			}
		})
	}
}
