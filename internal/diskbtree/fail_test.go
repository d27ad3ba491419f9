package diskbtree

// Failpoint regression tests: the fsyncgate poisoning contract, a
// crash-at-every-syscall sweep of acked durability, and a torn-oplog
// sweep that truncates the log at every byte offset.

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
)

// TestFsyncPoisoning is the fsyncgate regression at the tree level: after
// one failed oplog fsync no operation may ever report success again. A
// retried fsync that "succeeds" proves nothing about the dirty data the
// kernel dropped, so the only safe behavior is fail-stop.
func TestFsyncPoisoning(t *testing.T) {
	open := func(fs pagestore.FS) *Tree {
		tr, err := Open(filepath.Join(t.TempDir(), "t.db"),
			Options{Cap: 8, CacheNodes: 16, Durable: true, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Probe run: count the fsyncs issued by open + 3 inserts, so the plan
	// can target exactly the group-commit fsync that follows them.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	pt := open(probe)
	for i := int64(0); i < 3; i++ {
		if _, err := pt.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	target := probe.Syncs() + 1

	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailSyncAt: target})
	tr := open(fs)
	for i := int64(0); i < 3; i++ {
		if _, err := tr.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("Commit = %v, want the injected fsync failure", err)
	}
	// Sticky from here on: the disk would now accept every syscall, but
	// nothing may be acknowledged.
	if err := tr.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second Commit = %v, want ErrPoisoned", err)
	} else if !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("poison lost its cause: %v", err)
	}
	if _, err := tr.Insert(99, 1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Insert after poison = %v, want ErrPoisoned", err)
	}
	if _, _, err := tr.Search(1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Search after poison = %v, want ErrPoisoned", err)
	}
	if _, err := tr.Delete(1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Delete after poison = %v, want ErrPoisoned", err)
	}
	if err := tr.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync after poison = %v, want ErrPoisoned", err)
	}
	if err := tr.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Close after poison = %v, want ErrPoisoned", err)
	}
}

// TestReadErrorPoisonsEveryEntryPoint: a failed page read is a storage
// failure like any other — whichever entry point meets it reports it, and
// from then on every public read and write entry point fails stop. The
// ordered reads (SearchGE, Min) used to bypass both halves of that.
func TestReadErrorPoisonsEveryEntryPoint(t *testing.T) {
	// Each victim is an entry point that has to read an evicted page.
	victims := map[string]func(tr *Tree) error{
		"Search":      func(tr *Tree) error { _, _, err := tr.Search(5000); return err },
		"SearchGE":    func(tr *Tree) error { _, _, _, err := tr.SearchGE(5001); return err },
		"Min":         func(tr *Tree) error { _, _, _, err := tr.Min(); return err },
		"Range":       func(tr *Tree) error { return tr.Range(5000, 5100, func(int64, uint64) bool { return true }) },
		"RangeLeaves": func(tr *Tree) error { return tr.RangeLeaves(5000, 5100, func([]int64, []uint64) bool { return true }) },
		"Insert":      func(tr *Tree) error { _, err := tr.Insert(5001, 1); return err },
		"Delete":      func(tr *Tree) error { _, err := tr.Delete(5000); return err },
	}
	build := func(t *testing.T, fs pagestore.FS) *Tree {
		tr, err := Open(filepath.Join(t.TempDir(), "t.db"), Options{Cap: 8, CacheNodes: 8, Durable: true, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		for i := int64(0); i < 1000; i++ { // far more leaves than the pool holds
			if _, err := tr.Insert(i*10, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	// The build is deterministic: a probe run counts its reads, so the
	// plan can fail the first read after it.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	build(t, probe)
	for name, victim := range victims {
		t.Run(name, func(t *testing.T) {
			fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailReadAt: probe.Reads() + 1})
			tr := build(t, fs)
			if err := victim(tr); !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("%s over an evicted page = %v, want the injected read failure", name, err)
			}
			after := map[string]error{
				"Sync":       tr.Sync(),
				"Commit":     tr.Commit(),
				"Checkpoint": func() error { _, err := tr.Checkpoint(); return err }(),
			}
			for n, v := range victims {
				after[n] = v(tr)
			}
			for n, err := range after {
				if !errors.Is(err, ErrPoisoned) || !errors.Is(err, pagestore.ErrInjected) {
					t.Errorf("%s after the read failure = %v, want ErrPoisoned carrying the cause", n, err)
				}
			}
		})
	}
}

// twoWorkersOneCommit is the serving layer's commit pipeline in miniature:
// two worker goroutines insert keys — A the even positions, B the odd,
// in strict alternation so the oplog's record order and the syscall trace
// are the same on every run — and a third, the committer, makes all of it
// durable with one Commit. A nil return acknowledges every key.
func twoWorkersOneCommit(tr *Tree, keys []int64, val func(int64) uint64) error {
	type worker struct {
		keys chan int64
		errs chan error
	}
	var ws [2]worker
	for i := range ws {
		w := worker{make(chan int64), make(chan error)}
		ws[i] = w
		go func() {
			for k := range w.keys {
				_, err := tr.Insert(k, val(k))
				w.errs <- err
			}
		}()
		defer close(w.keys)
	}
	for i, k := range keys {
		w := ws[i%2]
		w.keys <- k
		if err := <-w.errs; err != nil {
			return err
		}
	}
	committed := make(chan error)
	go func() { committed <- tr.Commit() }()
	return <-committed
}

// TestCrashSweepAckedDurability crashes a commit-per-op workload at every
// mutating syscall of its trace and checks the one-sided durability
// contract after each: every operation whose Commit returned nil before
// the crash is present after recovery (unacked operations may or may not
// be). The workload ends with the serving layer's interleaving — records
// appended by worker A and by worker B, committed once by the committer —
// so the sweep also crashes before, inside and after that one Sync.
func TestCrashSweepAckedDurability(t *testing.T) {
	opts := func(fs pagestore.FS) Options {
		return Options{Cap: 5, CacheNodes: 8, Durable: true, FS: fs}
	}
	// A cleanly shut-down base tree; each crash trial starts from a copy.
	base := filepath.Join(t.TempDir(), "tree.db")
	bt, err := Open(base, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := bt.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}

	workload := func(tr *Tree) (acked []int64) {
		for i := int64(0); i < 25; i++ {
			k := 100 + i*3
			if _, err := tr.Insert(k, uint64(k)*7); err != nil {
				return
			}
			if err := tr.Commit(); err != nil {
				return
			}
			acked = append(acked, k)
			// A full checkpoint mid-workload puts every syscall of the
			// image build, install rename, and oplog rotation into the
			// sweep's crash range.
			if i == 12 {
				if err := tr.Sync(); err != nil {
					return
				}
			}
		}
		group := []int64{301, 304, 307, 310, 313, 316}
		if twoWorkersOneCommit(tr, group, func(k int64) uint64 { return uint64(k) * 7 }) == nil {
			acked = append(acked, group...)
		}
		return
	}

	// Probe run to learn the workload's full syscall count.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	ppath := copyCrashState(t, base, t.TempDir())
	ptr, err := Open(ppath, opts(probe))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(workload(ptr)); got != 31 {
		t.Fatalf("probe acked %d/31 ops", got)
	}
	ptr.Close()
	total := probe.Ops()
	if total < 25 {
		t.Fatalf("implausible syscall count %d", total)
	}

	for n := int64(1); n <= total; n++ {
		path := copyCrashState(t, base, t.TempDir())
		fs := pagestore.NewFailFS(nil, pagestore.FailPlan{CrashAt: n})
		var acked []int64
		if tr, err := Open(path, opts(fs)); err == nil {
			acked = workload(tr)
			tr.Close() // errors after a crash; the real descriptors still close
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d never fired", n, total)
		}
		// The simulated process is gone; reopen the frozen files for real.
		rec, err := Open(path, opts(nil))
		if err != nil {
			t.Fatalf("crash at syscall %d: reopen failed: %v", n, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("crash at syscall %d: recovered tree corrupt: %v", n, err)
		}
		for i := int64(0); i < 10; i++ {
			v, ok, err := rec.Search(i)
			if err != nil || !ok || v != uint64(i) {
				t.Fatalf("crash at syscall %d: base key %d = %d,%v,%v", n, i, v, ok, err)
			}
		}
		for _, k := range acked {
			v, ok, err := rec.Search(k)
			if err != nil || !ok || v != uint64(k)*7 {
				t.Fatalf("crash at syscall %d: acked key %d lost (= %d,%v,%v)", n, k, v, ok, err)
			}
		}
		rec.Close()
	}
	t.Logf("swept %d crash points", total)
}

// TestCrashSweepMidCheckpoint puts acked inserts between a checkpoint's
// cut and its commit — into pages the cut marked, so writers save cut
// pages and evictions write them — and crashes at every syscall of the
// combined trace, Close's last checkpoint and compaction included: the
// kill lands inside cut-page writes, the map write and fsync, the meta
// page flip and the oplog rotation, with appends in flight. Every op
// acked before the crash must survive recovery, whichever checkpoint
// (old or newly committed) recovery starts from.
func TestCrashSweepMidCheckpoint(t *testing.T) {
	opts := func(fs pagestore.FS) Options {
		return Options{Cap: 5, CacheNodes: 8, Durable: true, FS: fs}
	}
	base := filepath.Join(t.TempDir(), "tree.db")
	bt, err := Open(base, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if _, err := bt.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}

	// Acked inserts before the checkpoint, between its cut and commit, and
	// after it; the first failed call is the crash, and ends the workload.
	workload := func(tr *Tree) (acked []int64) {
		insert := func() bool {
			k := int64(len(acked)) * 3 // among the base keys: marked pages
			if len(acked) >= 14 {
				k = 1000 + k
			}
			if _, err := tr.Insert(k, uint64(k)*7); err != nil {
				return false
			}
			if err := tr.Commit(); err != nil {
				return false
			}
			acked = append(acked, k)
			return true
		}
		for len(acked) < 6 && insert() {
		}
		testHookCut = func(held bool) {
			for !held && len(acked) < 14 && insert() {
			}
		}
		defer func() { testHookCut = nil }()
		_, err := tr.Checkpoint()
		for err == nil && len(acked) < 20 && insert() {
		}
		return acked
	}

	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	ppath := copyCrashState(t, base, t.TempDir())
	ptr, err := Open(ppath, opts(probe))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(workload(ptr)); got != 20 {
		t.Fatalf("probe acked %d/20 ops", got)
	}
	ptr.Close()
	total := probe.Ops()

	for n := int64(1); n <= total; n++ {
		path := copyCrashState(t, base, t.TempDir())
		fs := pagestore.NewFailFS(nil, pagestore.FailPlan{CrashAt: n})
		var acked []int64
		if tr, err := Open(path, opts(fs)); err == nil {
			acked = workload(tr)
			tr.Close()
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d never fired", n, total)
		}
		rec, err := Open(path, opts(nil))
		if err != nil {
			t.Fatalf("crash at syscall %d: reopen failed: %v", n, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("crash at syscall %d: recovered tree corrupt: %v", n, err)
		}
		ackedVal := map[int64]bool{}
		for _, k := range acked {
			ackedVal[k] = true
		}
		for i := int64(0); i < 40; i++ {
			v, ok, err := rec.Search(i)
			if err != nil || !ok || (v != uint64(i) && !(v == uint64(i)*7 && i%3 == 0)) || (ackedVal[i] && v != uint64(i)*7) {
				t.Fatalf("crash at syscall %d: base key %d = %d,%v,%v", n, i, v, ok, err)
			}
		}
		for _, k := range acked {
			v, ok, err := rec.Search(k)
			if err != nil || !ok || v != uint64(k)*7 {
				t.Fatalf("crash at syscall %d: acked key %d lost (= %d,%v,%v)", n, k, v, ok, err)
			}
		}
		rec.Close()
	}
	t.Logf("swept %d mid-checkpoint crash points", total)
}

// TestTornOplogTailSweep truncates the oplog at every byte offset — not
// just record boundaries — and verifies recovery keeps exactly the fully
// written records and drops exactly the torn one. A corrupt-byte variant
// flips each byte of the final record and expects the CRC framing to
// reject it. The log under the knife is one the commit pipeline wrote:
// records of two workers interleaved, made durable by a single Commit.
func TestTornOplogTailSweep(t *testing.T) {
	const n = 12
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(path, Options{Cap: 8, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	if err := twoWorkersOneCommit(tr, keys, func(k int64) uint64 { return uint64(k) + 1 }); err != nil {
		t.Fatal(err)
	}
	crashed := copyCrashState(t, path, t.TempDir())

	st, err := os.Stat(crashed + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != journal.OplogHdrSize+n*journal.OpRecSize {
		t.Fatalf("oplog is %d bytes, want %d (hdr+n*%d): record framing changed?",
			st.Size(), journal.OplogHdrSize+n*journal.OpRecSize, journal.OpRecSize)
	}

	verify := func(trial string, wantLen int, why string) {
		rec, err := Open(trial, Options{Cap: 8, CacheNodes: 16, Durable: true})
		if err != nil {
			t.Fatalf("%s: reopen failed: %v", why, err)
		}
		defer rec.Close()
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("%s: recovered tree corrupt: %v", why, err)
		}
		if rec.Len() != wantLen {
			t.Fatalf("%s: Len = %d, want %d", why, rec.Len(), wantLen)
		}
		for i := int64(0); i < n; i++ {
			v, ok, err := rec.Search(i)
			if err != nil {
				t.Fatalf("%s: Search(%d): %v", why, i, err)
			}
			if wantOk := i < int64(wantLen); ok != wantOk || (ok && v != uint64(i)+1) {
				t.Fatalf("%s: key %d = %d,%v, want present=%v", why, i, v, ok, wantOk)
			}
		}
	}

	t.Logf("sweeping %d cuts and %d byte flips", st.Size()+1, journal.OpRecSize)
	for cut := int64(0); cut <= st.Size(); cut++ {
		trial := copyCrashState(t, crashed, t.TempDir())
		if err := os.Truncate(trial+".oplog", cut); err != nil {
			t.Fatal(err)
		}
		wantLen := 0
		if cut >= int64(journal.OplogHdrSize) {
			wantLen = int((cut - int64(journal.OplogHdrSize)) / journal.OpRecSize)
		}
		verify(trial, wantLen, "cut at byte "+strconv.FormatInt(cut, 10))
	}

	for off := int64(journal.OplogHdrSize + (n-1)*journal.OpRecSize); off < st.Size(); off++ {
		trial := copyCrashState(t, crashed, t.TempDir())
		f, err := os.OpenFile(trial+".oplog", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xA5
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		verify(trial, n-1, "flip at byte "+strconv.FormatInt(off, 10))
	}
}
