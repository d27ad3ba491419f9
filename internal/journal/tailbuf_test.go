package journal

// The buffered oplog tail: an appended record lives in memory until the
// next Commit (or Trim, or Close) writes the whole tail with one
// WriteAt. These tests pin where the bytes are at each point, and that no
// reader of the file — recovery, replication — is ever shown less than it
// is entitled to or more than is durable.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"btreeperf/internal/pagestore"
)

func oplogSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestAppendTouchesNoFile(t *testing.T) {
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{}) // injects nothing: it counts
	calls := func() int64 { return fs.Ops() + fs.Reads() }
	j, err := OpenFS(filepath.Join(t.TempDir(), "data.db"), false, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 512) // the tail has its steady-state capacity now
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	before := calls()
	key := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		if err := j.Append(Op{Kind: OpInsert, Key: key, Val: 1}); err != nil {
			t.Fatal(err)
		}
		key++
	})
	if got := calls() - before; got != 0 {
		t.Errorf("501 Appends made %d reads and mutating syscalls, want 0", got)
	}
	if allocs != 0 && !raceEnabled {
		t.Errorf("Append: %v allocs/op, want 0", allocs)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := calls() - before; got != 2 {
		t.Errorf("the Commit made %d reads and mutating syscalls, want one WriteAt and one Sync", got)
	}
}

func TestTailReachesFileAtCommit(t *testing.T) {
	const n = 40
	j, path := openJournal(t)
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, n)
	if got := oplogSize(t, path); got != OplogHdrSize {
		t.Fatalf("oplog holds %d bytes after %d uncommitted appends, want the %d-byte header only", got, n, OplogHdrSize)
	}
	if app, syn, bytes, _ := j.Stats(); app != n || syn != 0 || bytes != n*OpRecSize {
		t.Fatalf("Stats = %d appended, %d synced, %d bytes", app, syn, bytes)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := oplogSize(t, path), int64(OplogHdrSize+n*OpRecSize); got != want {
		t.Fatalf("oplog holds %d bytes after Commit, want exactly %d", got, want)
	}
	ops, err := reopenJournal(t, path).Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != n {
		t.Fatalf("Recover returned %d ops, want %d", len(ops), n)
	}
	for i, op := range ops {
		if op.Key != int64(i) || op.Val != uint64(i)+1 {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
	// Close flushes what Commit has not: a clean shutdown loses nothing
	// even without a final checkpoint.
	appendN(t, j, n, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := oplogSize(t, path), int64(OplogHdrSize+(n+3)*OpRecSize); got != want {
		t.Fatalf("oplog holds %d bytes after Close, want %d", got, want)
	}
}

func TestSyncOpsWritesThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	j, err := OpenFS(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := j.Append(Op{Kind: OpInsert, Key: i, Val: 1}); err != nil {
			t.Fatal(err)
		}
		if got, want := oplogSize(t, path), OplogHdrSize+i*OpRecSize; got != want {
			t.Fatalf("after append %d the oplog holds %d bytes, want %d", i, got, want)
		}
		if j.SeqDurable() != i {
			t.Fatalf("after append %d SeqDurable = %d", i, j.SeqDurable())
		}
	}
}

// Trim writes the tail out before it seals the active file. Records
// still in the tail when it starts — below the checkpoint and above it —
// must reach the sealed file, and the ones above it must be durable.
func TestTrimWithNonEmptyTail(t *testing.T) {
	j, path := openJournal(t)
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	j.SetRetention(func() int64 { return 0 }, 1<<20) // a follower needs everything: seal
	appendN(t, j, 0, 4)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 4, 6) // seqs 5..10 exist only in the tail
	if _, err := j.Trim(7); err != nil {
		t.Fatal(err)
	}
	if j.SeqAppended() != 10 || j.SeqDurable() != 10 {
		t.Fatalf("after trim: appended %d durable %d, want 10/10", j.SeqAppended(), j.SeqDurable())
	}
	// The whole history, across the sealed segment and the new epoch.
	tl := j.Tail(0)
	defer tl.Close()
	for want := int64(1); want <= 10; {
		first, ops, err := tl.Next(100)
		if err != nil || len(ops) == 0 || first != want {
			t.Fatalf("Tail.Next at %d = %d/%d/%v", want, first, len(ops), err)
		}
		for _, op := range ops {
			if op.Key != want-1 {
				t.Fatalf("seq %d carries key %d", want, op.Key)
			}
			want++
		}
	}
	// And what a restart finds: the three records past the image.
	ops, err := reopenJournal(t, path).Recover(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[0].Key != 7 || ops[2].Key != 9 {
		t.Fatalf("replay after trim = %+v", ops)
	}
}

// A replication tail racing appenders, committers and trims never
// returns a record beyond the durable sequence: such a record is, at that
// moment, nowhere but in the leader's memory.
func TestTailNeverPassesDurable(t *testing.T) {
	j, _ := openJournal(t)
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	j.SetRetention(func() int64 { return 0 }, 64<<20)
	const total = 3000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < total; i++ {
			if err := j.Append(Op{Kind: OpInsert, Key: i}); err != nil {
				t.Error(err)
				return
			}
			switch {
			case i%29 == 28:
				if err := j.Commit(); err != nil {
					t.Error(err)
					return
				}
			case i%531 == 530:
				if _, err := j.Trim(j.SeqAppended() - 7); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := j.Commit(); err != nil {
			t.Error(err)
		}
	}()
	tl := j.Tail(0)
	defer tl.Close()
	for next := int64(1); next <= total && !t.Failed(); {
		first, ops, err := tl.Next(64)
		// Read the bound after the records: it only grows, so a record
		// above it now was above it when Next planned the read. (The
		// check can miss a violation that a commit overtook; it cannot
		// invent one. TestTailStopsAtDurable is the deterministic half.)
		durable := j.SeqDurable()
		if err != nil {
			t.Fatalf("at seq %d: %v", next, err)
		}
		if len(ops) == 0 {
			continue
		}
		if first != next {
			t.Fatalf("chunk starts at %d, want %d", first, next)
		}
		if last := first + int64(len(ops)) - 1; last > durable {
			t.Fatalf("Tail returned seq %d, durable is %d", last, durable)
		}
		for i, op := range ops {
			if op.Key != first+int64(i)-1 {
				t.Fatalf("seq %d carries key %d", first+int64(i), op.Key)
			}
		}
		next += int64(len(ops))
	}
	wg.Wait()
}
