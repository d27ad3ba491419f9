package journal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"btreeperf/internal/pagestore"
)

// countFS counts the journal's syscalls by kind.
type countFS struct {
	mu                                              sync.Mutex
	creates, renames, removes, syncs, reads, writes int
}

type countFile struct {
	pagestore.File
	fs *countFS
}

func (c *countFS) add(n *int) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := os.Stat(name); os.IsNotExist(err) {
			c.add(&c.creates)
		}
	}
	f, err := pagestore.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) Rename(o, n string) error { c.add(&c.renames); return os.Rename(o, n) }
func (c *countFS) Remove(name string) error { c.add(&c.removes); return os.Remove(name) }

func (f countFile) Sync() error                { f.fs.add(&f.fs.syncs); return f.File.Sync() }
func (f countFile) Read(p []byte) (int, error) { f.fs.add(&f.fs.reads); return f.File.Read(p) }
func (f countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.add(&f.fs.reads)
	return f.File.ReadAt(p, off)
}
func (f countFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.add(&f.fs.writes)
	return f.File.WriteAt(p, off)
}

func (c *countFS) snapshot() [6]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return [6]int{c.creates, c.renames, c.removes, c.syncs, c.reads, c.writes}
}

// A checkpoint with nothing in flight and no follower costs the journal a
// rename (the seal), a create and its header write (the new active file)
// and a remove (the sealed file, which the checkpoint covers): no fsync,
// and no record is read.
func TestQuiescentTrimSyscalls(t *testing.T) {
	fs := &countFS{}
	j, err := OpenFS(filepath.Join(t.TempDir(), "data.db"), false, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 100)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	before := fs.snapshot()
	if _, err := j.Trim(j.SeqAppended()); err != nil {
		t.Fatal(err)
	}
	after := fs.snapshot()
	var got [6]int
	for i := range got {
		got[i] = after[i] - before[i]
	}
	if want := [6]int{1, 1, 1, 0, 0, 1}; got != want {
		t.Fatalf("quiescent trim: creates, renames, removes, syncs, reads, writes = %v, want %v", got, want)
	}
	if n, _ := j.RetainedSegments(); n != 0 {
		t.Fatalf("%d segments retained with no follower", n)
	}
}

// The seal fsyncs the outgoing file exactly when it holds records above
// the checkpoint that no fsync covers yet — the only records that exist
// nowhere else on disk.
func TestTrimSyncsOnlyUncoveredRecordsAboveCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name              string
		committed, tailed int64 // records committed, then appended after the commit
		upTo              int64
		syncs             int
	}{
		{"all committed", 5, 0, 3, 0},
		{"uncommitted at or below the checkpoint", 3, 2, 5, 0},
		{"uncommitted above the checkpoint", 3, 2, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &countFS{}
			j, err := OpenFS(filepath.Join(t.TempDir(), "data.db"), false, fs)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if _, err := j.Recover(0); err != nil {
				t.Fatal(err)
			}
			appendN(t, j, 0, tc.committed)
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
			appendN(t, j, tc.committed, tc.tailed)
			before := fs.snapshot()[3]
			if _, err := j.Trim(tc.upTo); err != nil {
				t.Fatal(err)
			}
			if got := fs.snapshot()[3] - before; got != tc.syncs {
				t.Fatalf("trim issued %d fsyncs, want %d", got, tc.syncs)
			}
			if head := tc.committed + tc.tailed; j.SeqDurable() != head {
				t.Fatalf("SeqDurable after trim = %d, want the head %d", j.SeqDurable(), head)
			}
		})
	}
}

// Trims race an appender and a committer. Whatever the interleaving —
// records appended while a seal's fsync runs stay in the tail and go to
// the new active file — a restart from the last trim's sequence replays
// every record above it exactly once, in order, and numbering goes on
// from the head.
func TestTrimUnderConcurrentAppends(t *testing.T) {
	const total = 3000
	j, path := openJournal(t)
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lastTrim int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < total; i++ {
			if err := j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)}); err != nil {
				t.Error(err)
				return
			}
			if i%13 == 12 {
				if err := j.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			upTo := j.SeqAppended() / 2 // some records at or below, some above
			if upTo < lastTrim {
				continue
			}
			if _, err := j.Trim(upTo); err != nil {
				t.Error(err)
				return
			}
			lastTrim = upTo
		}
	}()
	wg.Wait()
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := reopenJournal(t, path)
	defer j2.Close()
	ops, err := j2.Recover(lastTrim)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ops)) != total-lastTrim {
		t.Fatalf("replayed %d records past %d, want %d", len(ops), lastTrim, total-lastTrim)
	}
	for i, op := range ops {
		if want := lastTrim + int64(i); op.Key != want {
			t.Fatalf("replayed record %d has key %d, want %d", i, op.Key, want)
		}
	}
	if got := j2.SeqAppended(); got != total {
		t.Fatalf("numbering resumes after %d, want %d", got, total)
	}
}
