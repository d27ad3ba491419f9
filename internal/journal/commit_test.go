package journal

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/pagestore"
)

func openFailJournal(t *testing.T, fs pagestore.FS) *Journal {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "s.db")
	j, err := OpenFS(path, false, fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCommitCoversAppendedRecords(t *testing.T) {
	j := openFailJournal(t, nil)
	for i := 0; i < 10; i++ {
		if err := j.Append(Op{Kind: OpInsert, Key: int64(i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	app, syn, bytes, _ := j.Stats()
	if app != 10 || syn != 0 {
		t.Fatalf("before commit: appended %d synced %d", app, syn)
	}
	if bytes != 10*OpRecSize {
		t.Fatalf("oplog bytes %d, want %d", bytes, 10*OpRecSize)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	app, syn, _, commits := j.Stats()
	if syn != app {
		t.Fatalf("after commit: appended %d synced %d", app, syn)
	}
	if commits != 1 {
		t.Fatalf("commits = %d, want 1", commits)
	}
	// A second Commit with nothing new to cover must not fsync again.
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, c := j.Stats(); c != 1 {
		t.Fatalf("idle commit fsynced: commits = %d", c)
	}
}

// TestGroupCommitPiggyback runs concurrent appenders+committers and
// checks every record ends up covered with far fewer fsyncs than commits
// requested (the group-commit amortization) — and that no Commit ever
// returns with its records uncovered.
func TestGroupCommitPiggyback(t *testing.T) {
	j := openFailJournal(t, nil)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := j.Append(Op{Kind: OpInsert, Key: int64(w*perWorker + i)}); err != nil {
					t.Error(err)
					return
				}
				if err := j.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	app, syn, _, commits := j.Stats()
	if app != workers*perWorker {
		t.Fatalf("appended %d, want %d", app, workers*perWorker)
	}
	if syn < app {
		t.Fatalf("synced %d < appended %d after every Commit returned", syn, app)
	}
	if commits >= workers*perWorker {
		t.Fatalf("no piggybacking: %d fsyncs for %d commits", commits, workers*perWorker)
	}
	t.Logf("group commit: %d records, %d fsyncs", app, commits)
}

// TestFailedSyncPoisonsJournal is the fsyncgate regression: after one
// failed oplog fsync, every later Append and Commit must fail — a retried
// fsync that "succeeds" proves nothing about the records whose writeback
// was dropped.
func TestFailedSyncPoisonsJournal(t *testing.T) {
	// Syncs in this sequence: Commit's fsync is the journal's first sync
	// (Recover on a fresh oplog syncs nothing).
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailSyncAt: 1})
	j := openFailJournal(t, fs)
	if err := j.Append(Op{Kind: OpInsert, Key: 1}); err != nil {
		t.Fatal(err)
	}
	err := j.Commit()
	if !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("Commit = %v, want injected sync failure", err)
	}
	// Sticky: everything after the failed fsync errors with ErrPoisoned,
	// even though the disk would now accept the I/O.
	if err := j.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second Commit = %v, want ErrPoisoned", err)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after poison = %v, want ErrPoisoned", err)
	}
	if _, err := j.Trim(j.SeqAppended()); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Trim after poison = %v, want ErrPoisoned", err)
	}
	if _, _, _, commits := j.Stats(); commits != 0 {
		t.Fatalf("poisoned journal recorded %d successful commits", commits)
	}
}

// TestFailedTailWritePoisons tears the one write that carries the
// buffered tail to the file: the Commit that issued it fails, and so does
// everything after.
func TestFailedTailWritePoisons(t *testing.T) {
	// Key the plan to the tail's write by counting syscalls with an inert
	// run first.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	pj := openFailJournal(t, probe)
	before := probe.Ops()
	if err := pj.Append(Op{Kind: OpInsert, Key: 9}); err != nil {
		t.Fatal(err)
	}
	if probe.Ops() != before {
		t.Fatalf("Append made %d mutating syscalls, want none", probe.Ops()-before)
	}
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := probe.Ops() - before; got != 2 {
		t.Fatalf("Commit made %d mutating syscalls, want a write and an fsync", got)
	}

	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailWriteAt: before + 1, TornBytes: 5})
	j := openFailJournal(t, fs)
	if fs.Ops() != before {
		t.Fatalf("setup syscalls diverged: %d vs %d", fs.Ops(), before)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("Commit = %v, want injected write failure", err)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 10}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after torn write = %v, want ErrPoisoned", err)
	}
	if err := j.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit after torn write = %v, want ErrPoisoned", err)
	}
}

// TestStatsDoesNotWaitForFsync: a telemetry read must come back while a
// commit is inside its device flush — with a committer syncing back to
// back there is always one in flight — and must report the synced count
// on either side of it, across a seal too.
func TestStatsDoesNotWaitForFsync(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	j := openFailJournal(t, fs) // opened before the hook: Recover's own syncs pass
	fs.AroundSync = func(_ string, f pagestore.File) error {
		entered <- struct{}{}
		<-gate
		return f.Sync()
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(Op{Kind: OpInsert, Key: int64(i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	committed := make(chan error, 1)
	go func() { committed <- j.Commit() }()
	<-entered // the fsync is in flight and holds syncMu

	got := make(chan [2]int64, 1)
	go func() {
		app, syn, _, _ := j.Stats()
		got <- [2]int64{app, syn}
	}()
	select {
	case st := <-got:
		if st != [2]int64{5, 0} {
			t.Errorf("Stats during the fsync = appended %d synced %d, want 5 and 0", st[0], st[1])
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats waited for the stalled fsync")
	}
	close(gate)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if app, syn, _, _ := j.Stats(); app != 5 || syn != 5 {
		t.Fatalf("after the commit: appended %d synced %d, want 5 and 5", app, syn)
	}

	// A seal starts a new active file; the count is per file.
	fs.AroundSync = nil
	if _, err := j.Trim(j.SeqAppended()); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 9, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if app, syn, _, _ := j.Stats(); app != 1 || syn != 0 {
		t.Fatalf("after the seal: appended %d synced %d, want 1 and 0", app, syn)
	}
}

// TestFsyncsTimesEveryFsync: the fsync histogram holds one sample per
// fsync of the active file, each timed from call to return — group
// commits' and a trim's — and a commit that a concurrent fsync covered
// adds none.
func TestFsyncsTimesEveryFsync(t *testing.T) {
	const stall = 20 * time.Millisecond
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	j := openFailJournal(t, fs)
	fs.AroundSync = func(_ string, f pagestore.File) error {
		time.Sleep(stall)
		return f.Sync()
	}
	for i := 0; i < 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: int64(i), Val: 1})
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil { // nothing new: no fsync
		t.Fatal(err)
	}
	j.Append(Op{Kind: OpInsert, Key: 9, Val: 1})
	if _, err := j.Trim(j.SeqAppended() - 1); err != nil { // the uncovered record is fsync'd
		t.Fatal(err)
	}
	fs.AroundSync = nil
	h := j.Fsyncs()
	if n := h.N(); n != 6 {
		t.Fatalf("%d fsyncs timed, want 6", n)
	}
	if min := h.Quantile(0); min < stall.Nanoseconds()*15/16 {
		t.Fatalf("fastest fsync timed at %d ns, each was held %v", min, stall)
	}
}
