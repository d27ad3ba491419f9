package diskbtree

// Crash coverage for the oplog chain: a checkpoint commits its meta page
// and then trims the oplog — seals the active file by rename, starts a
// new one, deletes the sealed files the commit covers. Whatever a crash
// leaves of that, recovery must lose no acked write, replay each record
// once, reuse no sequence, and leave no sealed file of the old run behind.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
)

// seqKey is an acked insert and the oplog sequence it was given.
type seqKey struct{ seq, key int64 }

func chainOpts(fs pagestore.FS) Options {
	return Options{Cap: 5, CacheNodes: 8, Durable: true, FS: fs}
}

// chainBase makes a cleanly closed durable tree holding keys 0..39.
func chainBase(t *testing.T) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "tree.db")
	bt, err := Open(base, chainOpts(nil))
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
	return base
}

// insertAcked inserts key (value key·7), commits, and on success appends
// the insert and its sequence to acked. Single-threaded callers only: the
// sequence is read back as the journal's head.
func insertAcked(tr *Tree, key int64, acked *[]seqKey) bool {
	if _, err := tr.Insert(key, uint64(key)*7); err != nil {
		return false
	}
	seq := tr.Journal().SeqAppended()
	if err := tr.Commit(); err != nil {
		return false
	}
	*acked = append(*acked, seqKey{seq, key})
	return true
}

// checkChainRecovery recovers the crashed files at path and checks the
// chain's contract against the acked inserts: recovery replays the
// records past the checkpoint once each, in sequence order (read through
// the journal on a copy of the files), every acked key is in the
// recovered tree, numbering resumes past every acked sequence, and no
// sealed segment is left on disk.
func checkChainRecovery(t *testing.T, what, path string, acked []seqKey) {
	t.Helper()
	ops := replayOf(t, copyCrashState(t, path, t.TempDir()))
	keyAt := map[int64]int64{}
	for _, a := range acked {
		keyAt[a.seq] = a.key
	}
	seen := map[int64]bool{}
	for i, op := range ops.ops {
		seq := ops.ckpt + 1 + int64(i)
		if k, ok := keyAt[seq]; ok && op.Key != k {
			t.Fatalf("%s: replayed seq %d carries key %d, acked as key %d", what, seq, op.Key, k)
		}
		if seen[op.Key] {
			t.Fatalf("%s: key %d replayed twice", what, op.Key)
		}
		seen[op.Key] = true
	}

	rec, err := Open(path, chainOpts(nil))
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", what, err)
	}
	defer rec.Close()
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered tree corrupt: %v", what, err)
	}
	if rec.Recovered() != len(ops.ops) {
		t.Fatalf("%s: Open replayed %d ops, the chain holds %d past the checkpoint", what, rec.Recovered(), len(ops.ops))
	}
	for i := int64(0); i < 40; i++ {
		if _, ok, err := rec.Search(i); err != nil || !ok {
			t.Fatalf("%s: base key %d lost (%v)", what, i, err)
		}
	}
	for _, a := range acked {
		v, ok, err := rec.Search(a.key)
		if err != nil || !ok || v != uint64(a.key)*7 {
			t.Fatalf("%s: acked key %d lost (= %d,%v,%v)", what, a.key, v, ok, err)
		}
		if head := rec.Journal().SeqAppended(); head < a.seq {
			t.Fatalf("%s: numbering resumes after %d, below acked seq %d", what, head, a.seq)
		}
	}
	if segs, _ := filepath.Glob(path + ".oplog.seg-*"); len(segs) != 0 {
		t.Fatalf("%s: sealed segments outlived Open: %v", what, segs)
	}
}

// chainReplay is what the journal replays past the committed checkpoint.
type chainReplay struct {
	ckpt int64
	ops  []journal.Op
}

// replayOf reads the committed checkpoint's sequence at path and the
// records the journal recovers past it. It rewrites the oplog files: run
// it on a copy.
func replayOf(t *testing.T, path string) chainReplay {
	t.Helper()
	st, err := pagestore.OpenFS(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	ud := st.UserData()
	st.Close()
	ckpt := int64(binary.LittleEndian.Uint64(ud[16:24]))
	j, err := journal.OpenFS(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ops, err := j.Recover(ckpt)
	if err != nil {
		t.Fatalf("journal recovery at %d: %v", ckpt, err)
	}
	return chainReplay{ckpt, ops}
}

// TestCrashSweepCheckpointChain crashes at every syscall of a workload
// whose checkpoints run while appends do: acked inserts land between the
// cut and the trim, and one insert is still unacked when the trim seals
// the file, so the seal fsyncs it. A second checkpoint deletes the
// sealed file the first one kept. Retention (a follower that needs
// everything) keeps sealed files past their checkpoint; without it the
// trim deletes them.
func TestCrashSweepCheckpointChain(t *testing.T) {
	base := chainBase(t)
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			workload := func(tr *Tree) (acked []seqKey) {
				if retain {
					tr.Journal().SetRetention(func() int64 { return 0 }, 1<<20)
				}
				next := int64(100)
				insert := func() bool { next++; return insertAcked(tr, next, &acked) }
				for range 3 {
					if !insert() {
						return
					}
				}
				testHookCut = func(held bool) {
					if held {
						return
					}
					for range 3 {
						if !insert() {
							return
						}
					}
					next++
					tr.Insert(next, uint64(next)*7) // appended, not acked
				}
				_, err := tr.Checkpoint()
				testHookCut = nil
				for i := 0; err == nil && i < 3 && insert(); i++ {
				}
				if err == nil {
					_, err = tr.Checkpoint()
				}
				for i := 0; err == nil && i < 2 && insert(); i++ {
				}
				return acked
			}
			defer func() { testHookCut = nil }()

			probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
			ptr, err := Open(copyCrashState(t, base, t.TempDir()), chainOpts(probe))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(workload(ptr)); got != 11 {
				t.Fatalf("probe acked %d/11 inserts", got)
			}
			total := probe.Ops()
			ptr.Close()

			for n := int64(1); n <= total; n++ {
				path := copyCrashState(t, base, t.TempDir())
				fs := pagestore.NewFailFS(nil, pagestore.FailPlan{CrashAt: n})
				var acked []seqKey
				if tr, err := Open(path, chainOpts(fs)); err == nil {
					acked = workload(tr)
					tr.Close()
				}
				if !fs.Crashed() {
					t.Fatalf("crash point %d/%d never fired", n, total)
				}
				checkChainRecovery(t, fmt.Sprintf("crash at syscall %d", n), path, acked)
			}
			t.Logf("swept %d crash points", total)
		})
	}
}

// oplogHeader encodes an oplog file header based at base.
func oplogHeader(base int64) []byte {
	h := make([]byte, journal.OplogHdrSize)
	binary.LittleEndian.PutUint32(h[0:], 0x4254424f)
	binary.LittleEndian.PutUint64(h[4:], uint64(base))
	binary.LittleEndian.PutUint32(h[12:], crc32.ChecksumIEEE(h[:12]))
	return h
}

// TestCrashNamedChainStates recovers from the on-disk states a crash
// inside a trim can leave, each built by hand from a real run's files.
func TestCrashNamedChainStates(t *testing.T) {
	base := chainBase(t) // checkpoint at sequence 40, active file empty
	seg := func(path string, base int64) string { return fmt.Sprintf("%s.oplog.seg-%020d", path, base) }

	// sealed runs a checkpoint at S = 43 whose trim keeps the sealed
	// file, seg-40: three acked inserts before the cut (seqs 41–43), three
	// between the cut and the trim (44–46), two after it (47, 48). then,
	// if set, runs last. It returns a copy of the files as they stand.
	sealed := func(t *testing.T, retain bool, then func(*Tree)) (path string, acked []seqKey) {
		path = copyCrashState(t, base, t.TempDir())
		tr, err := Open(path, chainOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if retain {
			tr.Journal().SetRetention(func() int64 { return 0 }, 1<<20)
		}
		for k := int64(101); k <= 103; k++ {
			insertAcked(tr, k, &acked)
		}
		testHookCut = func(held bool) {
			for k := int64(104); !held && k <= 106; k++ {
				insertAcked(tr, k, &acked)
			}
		}
		_, err = tr.Checkpoint()
		testHookCut = nil
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(107); k <= 108; k++ {
			insertAcked(tr, k, &acked)
		}
		if len(acked) != 8 || acked[0].seq != 41 || acked[7].seq != 48 {
			t.Fatalf("test setup: acked %+v", acked)
		}
		if then != nil {
			then(tr)
		}
		return copyCrashState(t, path, t.TempDir()), acked
	}

	t.Run("a: sealed, no new active file", func(t *testing.T) {
		path, acked := sealed(t, false, nil)
		os.Remove(path + ".oplog")
		checkChainRecovery(t, "state a", path, acked[:6]) // 47, 48 came after the seal
	})
	t.Run("b: new active file without its header", func(t *testing.T) {
		for _, size := range []int64{0, journal.OplogHdrSize / 2} {
			path, acked := sealed(t, false, nil)
			if err := os.Truncate(path+".oplog", size); err != nil {
				t.Fatal(err)
			}
			checkChainRecovery(t, fmt.Sprintf("state b, %d header bytes", size), path, acked[:6])
		}
	})
	t.Run("c: committed, covered segments not yet deleted", func(t *testing.T) {
		// Retention keeps what the second checkpoint (S = 48) covers:
		// seg-40 (41–46) and seg-46 (47, 48).
		path, acked := sealed(t, true, func(tr *Tree) {
			if _, err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		for _, b := range []int64{40, 46} {
			if _, err := os.Stat(seg(path, b)); err != nil {
				t.Fatalf("test setup: %v", err)
			}
		}
		checkChainRecovery(t, "state c", path, acked)
	})
	t.Run("c: segment holding records past the checkpoint", func(t *testing.T) {
		path, acked := sealed(t, false, nil) // seg-40 holds 44–46, past S = 43
		if _, err := os.Stat(seg(path, 40)); err != nil {
			t.Fatalf("test setup: %v", err)
		}
		checkChainRecovery(t, "state c, past S", path, acked)
	})
	t.Run("d: the earlier format's rotation, between its seal and commit", func(t *testing.T) {
		// That rotation copied the records up to S into seg-<base> and the
		// ones past S into .oplog.tmp, both next to the untouched active
		// file, and had not yet committed the checkpoint.
		path := copyCrashState(t, base, t.TempDir())
		tr, err := Open(path, chainOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var acked []seqKey
		for k := int64(101); k <= 105; k++ {
			insertAcked(tr, k, &acked)
		}
		path = copyCrashState(t, path, t.TempDir())
		raw, err := os.ReadFile(path + ".oplog")
		if err != nil {
			t.Fatal(err)
		}
		hdr, rec := int64(journal.OplogHdrSize), int64(journal.OpRecSize)
		if int64(len(raw)) != hdr+5*rec {
			t.Fatalf("test setup: oplog of %d bytes", len(raw))
		}
		if err := os.WriteFile(seg(path, 40), raw[:hdr+3*rec], 0o644); err != nil {
			t.Fatal(err)
		}
		tmp := append(oplogHeader(43), raw[hdr+3*rec:]...)
		if err := os.WriteFile(path+".oplog.tmp", tmp, 0o644); err != nil {
			t.Fatal(err)
		}
		checkChainRecovery(t, "state d", path, acked)
	})
}
