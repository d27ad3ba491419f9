package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"btreeperf/internal/pagestore"
)

func openJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.db")
	j, err := OpenFS(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func TestFreshRecovery(t *testing.T) {
	j, _ := openJournal(t)
	ops, err := j.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("fresh recovery returned %d ops", len(ops))
	}
	if j.SeqAppended() != 0 || j.SeqDurable() != 0 {
		t.Fatalf("fresh seqs: appended=%d durable=%d", j.SeqAppended(), j.SeqDurable())
	}
}

func TestOplogRoundTrip(t *testing.T) {
	j, _ := openJournal(t)
	if _, err := j.Recover(0); err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpInsert, Key: 1, Val: 100},
		{Kind: OpDelete, Key: 2},
		{Kind: OpInsert, Key: -7, Val: 9},
	}
	for _, op := range want {
		if err := j.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := j.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A checkpoint at 3 of 5 records keeps 4 and 5: the sealed file holds
// them until a checkpoint covers them, and a restart replays exactly
// them.
func TestTrimKeepsRecordsAboveCheckpoint(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	for i := int64(1); i <= 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	pause, err := j.Trim(3)
	if err != nil {
		t.Fatal(err)
	}
	if pause < 0 {
		t.Fatalf("pause = %d", pause)
	}
	// The seal made everything durable: 4 and 5 by an fsync of the
	// outgoing file, 1–3 by the checkpoint.
	if j.SeqAppended() != 5 || j.SeqDurable() != 5 {
		t.Fatalf("seqs after trim: appended=%d durable=%d", j.SeqAppended(), j.SeqDurable())
	}
	if _, err := os.Stat(segmentPath(path+".oplog", 0)); err != nil {
		t.Fatalf("the segment holding 4 and 5 is gone: %v", err)
	}
	ops, err := reopenJournal(t, path).Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Key != 4 || ops[1].Key != 5 {
		t.Fatalf("replay after trim = %+v", ops)
	}
}

func TestTrimBoundsChecked(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	if _, err := j.Trim(2); err == nil {
		t.Fatal("trim past head accepted")
	}
	if err := j.Failed(); err != nil {
		t.Fatalf("bounds error poisoned the journal: %v", err)
	}
}

// A seal that cannot make its records durable poisons the journal.
func TestTrimFailedSealPoisons(t *testing.T) {
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailSyncAt: 1})
	j := openFailJournal(t, fs)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	j.Append(Op{Kind: OpInsert, Key: 2, Val: 2})
	if _, err := j.Trim(1); !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("trim error = %v, want the injected fsync failure", err)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 3, Val: 3}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed seal = %v", err)
	}
	if err := j.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after failed seal = %v", err)
	}
}

func TestCheckpointRetiresOplog(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	if _, err := j.Trim(j.SeqAppended()); err != nil {
		t.Fatal(err)
	}
	ops, err := j.Recover(j.SeqAppended())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("%d ops survived a checkpoint", len(ops))
	}
	if j.SeqAppended() != 1 {
		t.Fatalf("sequence numbering reset: %d", j.SeqAppended())
	}
}

func TestTornOplogTailDropped(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	for i := int64(0); i < 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	j.Commit()
	// Tear the last record.
	of, err := os.OpenFile(path+".oplog", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := of.Stat()
	of.Truncate(st.Size() - 3)
	of.Close()

	ops, err := j.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 {
		t.Fatalf("recovered %d ops from torn log, want 4", len(ops))
	}
}

func TestCorruptOplogRecordStopsReplay(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	for i := int64(0); i < 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	j.Commit()
	// Corrupt the middle record; replay must stop before it, and recovery
	// must discard everything from the corruption on.
	of, _ := os.OpenFile(path+".oplog", os.O_RDWR, 0)
	of.WriteAt([]byte{0xEE}, 16+2*21+3) // 16-byte epoch header, then records
	of.Close()
	ops, err := j.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("recovered %d ops past corruption, want 2", len(ops))
	}
	// The torn tail is gone: appending works and a re-recovery sees the
	// survivors plus the new record at the right sequences.
	j.Append(Op{Kind: OpInsert, Key: 77, Val: 77})
	j.Commit()
	ops, err = j.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[2].Key != 77 {
		t.Fatalf("post-truncate append: %+v", ops)
	}
}

// A crash between a checkpoint's commit and its trim leaves the oplog
// as it was: records up to the checkpoint's sequence and past it in one
// file. Recovery replays the ones past it and keeps the file — nothing is
// rewritten — and appends continue at the next sequence.
func TestRecoverReplaysPastCheckpointInPlace(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	for i := int64(1); i <= 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	j.Commit()
	ops, err := j.Recover(3) // the checkpoint says S=3; the file's base is 0
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Key != 4 || ops[1].Key != 5 {
		t.Fatalf("replayed = %+v", ops)
	}
	if j.SeqAppended() != 5 {
		t.Fatalf("appended seq after recovery = %d", j.SeqAppended())
	}
	raw, err := os.ReadFile(path + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	if base, ok := parseOplogHdr(raw); !ok || base != 0 || len(raw) != OplogHdrSize+5*OpRecSize {
		t.Fatalf("oplog after recovery: base %d (ok=%v), %d bytes; want it untouched", base, ok, len(raw))
	}
	// New appends continue at sequence 6, at the offset it implies.
	j.Append(Op{Kind: OpInsert, Key: 6, Val: 6})
	j.Commit()
	if ops, err := reopenJournal(t, path).Recover(3); err != nil || len(ops) != 3 || ops[2].Key != 6 {
		t.Fatalf("replay after an append = %+v, %v", ops, err)
	}
}

func TestRecoverRebasePastHead(t *testing.T) {
	// The checkpoint can be ahead of every surviving record (an unflushed
	// tail below S): the active file starts over based at S, with zero
	// ops to replay.
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	ops, err := j.Recover(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("replay ops = %+v, want none", ops)
	}
	if j.SeqAppended() != 4 || j.SeqDurable() != 4 {
		t.Fatalf("seqs = %d/%d, want 4/4", j.SeqAppended(), j.SeqDurable())
	}
}

func TestRecoverOplogAheadOfImageRejected(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	j.Trim(j.SeqAppended()) // base is now 1, and record 1 is gone
	if _, err := j.Recover(0); err == nil {
		t.Fatal("oplog base ahead of image accepted")
	}
}

func TestRecoverForeignFileStartsClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	if err := os.WriteFile(path+".oplog", []byte("not an oplog at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFS(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := j.Recover(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("foreign file yielded %d ops", len(ops))
	}
	if j.SeqAppended() != 7 {
		t.Fatalf("base after clean start = %d, want 7", j.SeqAppended())
	}
}

func TestJournalClose(t *testing.T) {
	j, _ := openJournal(t)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
