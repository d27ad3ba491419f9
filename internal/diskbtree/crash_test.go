package diskbtree

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// copyCrashState simulates a crash: it copies the tree file and the
// oplog while the tree object still holds dirty pages in its buffer pool
// (those are "lost" — exactly what a crash does to an OS page cache that
// was never flushed; evicted pages HAVE reached the file, but only in
// slots the committed checkpoint does not name, so recovery opens that
// checkpoint and replays the oplog suffix).
func copyCrashState(t *testing.T, path, dstDir string) string {
	t.Helper()
	dst := filepath.Join(dstDir, "crashed.db")
	for _, suffix := range []string{"", ".oplog"} {
		src, err := os.Open(path + suffix)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(dst + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, src); err != nil {
			t.Fatal(err)
		}
		out.Close()
		src.Close()
	}
	return dst
}

// crash commits tr and copies its files as a kill -9 at that instant would
// leave them. The Commit is the documented durability point: until it (or
// a Sync) an appended operation lives only in the journal's memory, and a
// crash is entitled to lose it.
func crash(t *testing.T, tr *Tree, path string) string {
	t.Helper()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	return copyCrashState(t, path, t.TempDir())
}

func TestCrashRecoveryBasic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointed prefix.
	for i := int64(0); i < 500; i++ {
		if _, err := tr.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: logged but not checkpointed. The tiny pool
	// forces evictions, so the data file holds a MIX of old and new pages.
	for i := int64(500); i < 900; i++ {
		if _, err := tr.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 100; i++ {
		if _, err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}

	crashed := crash(t, tr, path)
	// The original process "dies" here (we simply stop using tr).

	rec, err := Open(crashed, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Recovered() == 0 {
		t.Fatal("no operations were replayed")
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree corrupt: %v", err)
	}
	if rec.Len() != 800 {
		t.Fatalf("recovered Len = %d, want 800", rec.Len())
	}
	for i := int64(0); i < 900; i++ {
		_, ok, err := rec.Search(i)
		if err != nil {
			t.Fatal(err)
		}
		want := i >= 100
		if ok != want {
			t.Fatalf("key %d: present=%v want %v", i, ok, want)
		}
	}
}

func TestCrashWithoutAnyCheckpoint(t *testing.T) {
	// Crash before the first explicit Sync: Open itself checkpoints after
	// attach, so the empty tree is the base and all ops replay.
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 700; i++ {
		tr.Insert(i*3, uint64(i))
	}
	crashed := crash(t, tr, path)

	rec, err := Open(crashed, Options{Cap: 8, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 700 {
		t.Fatalf("Len = %d", rec.Len())
	}
}

func TestCrashTornOplogTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		tr.Insert(i, uint64(i))
	}
	crashed := crash(t, tr, path)

	// Tear the oplog mid-record (a crash during the tail's write).
	st, err := os.Stat(crashed + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(crashed+".oplog", st.Size()-7); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(crashed, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Exactly the torn op is lost.
	if rec.Len() != 299 {
		t.Fatalf("Len = %d, want 299", rec.Len())
	}
}

func TestCrashDuringRecoveryIsRecoverable(t *testing.T) {
	// Crash once, begin recovery, "crash" again mid-recovery (by copying
	// the files after a partial replay would have dirtied pages), recover
	// again: the journal must rewind to the same checkpoint both times.
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		tr.Insert(i, uint64(i))
	}
	tr.Sync()
	for i := int64(400); i < 800; i++ {
		tr.Insert(i, uint64(i))
	}
	crash1 := crash(t, tr, path)

	// First recovery succeeds; immediately "crash" again without Sync by
	// copying its files mid-life (recovery itself checkpointed at Open, so
	// this copy is post-recovery — now add more unsynced ops first).
	rec1, err := Open(crash1, Options{Cap: 8, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(800); i < 1000; i++ {
		rec1.Insert(i, uint64(i))
	}
	crash2 := crash(t, rec1, crash1)

	rec2, err := Open(crash2, Options{Cap: 8, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if err := rec2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rec2.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", rec2.Len())
	}
}

// TestCrashFuzz crashes at many random points of a random workload and
// verifies every recovery yields exactly the committed state.
func TestCrashFuzz(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "tree.db")
			tr, err := Open(path, Options{Cap: 5, CacheNodes: 8, Durable: true})
			if err != nil {
				t.Fatal(err)
			}
			src := rand.New(rand.NewPCG(uint64(trial)*131+7, 0))
			model := map[int64]uint64{}
			nOps := 200 + src.IntN(1200)
			syncEvery := 50 + src.IntN(300)
			for i := 0; i < nOps; i++ {
				k := src.Int64N(500)
				if src.Float64() < 0.7 {
					v := src.Uint64()
					if _, err := tr.Insert(k, v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				} else {
					if _, err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				}
				if i%syncEvery == syncEvery-1 {
					if err := tr.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			crashed := crash(t, tr, path)

			rec, err := Open(crashed, Options{Cap: 5, CacheNodes: 8, Durable: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if err := rec.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if rec.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", rec.Len(), len(model))
			}
			for k, want := range model {
				got, ok, err := rec.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || got != want {
					t.Fatalf("key %d = %d,%v want %d", k, got, ok, want)
				}
			}
		})
	}
}

func TestDurableCleanReopenReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		tr.Insert(i, uint64(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(path, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Recovered() != 0 {
		t.Fatalf("clean reopen replayed %d ops", rec.Recovered())
	}
	if rec.Len() != 200 {
		t.Fatalf("Len = %d", rec.Len())
	}
}
