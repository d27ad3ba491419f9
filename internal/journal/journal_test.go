package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
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

func TestRotateDropsImagedPrefix(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	for i := int64(1); i <= 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	installed := false
	pause, err := j.Rotate(3, func() error { installed = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("commitImage not invoked")
	}
	if pause < 0 {
		t.Fatalf("pause = %d", pause)
	}
	// The rotation itself made everything durable (the replacement file
	// was fsync'd with the suffix in it).
	if j.SeqAppended() != 5 || j.SeqDurable() != 5 {
		t.Fatalf("seqs after rotate: appended=%d durable=%d", j.SeqAppended(), j.SeqDurable())
	}
	ops, err := j.Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Key != 4 || ops[1].Key != 5 {
		t.Fatalf("suffix after rotate = %+v", ops)
	}
}

func TestRotateBoundsChecked(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	if _, err := j.Rotate(2, nil); err == nil {
		t.Fatal("rotate past head accepted")
	}
	if err := j.Failed(); err != nil {
		t.Fatalf("bounds error poisoned the journal: %v", err)
	}
}

func TestRotateFailedInstallPoisons(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	boom := errors.New("image rename exploded")
	if _, err := j.Rotate(1, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("rotate error = %v", err)
	}
	if err := j.Append(Op{Kind: OpInsert, Key: 2, Val: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed install = %v", err)
	}
	if err := j.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after failed install = %v", err)
	}
}

func TestCheckpointRetiresOplog(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.Append(Op{Kind: OpInsert, Key: 1, Val: 1})
	if _, err := j.Rotate(j.SeqAppended(), nil); err != nil {
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

func TestRecoverRebasesOldEpoch(t *testing.T) {
	// A crash between Rotate's image rename and oplog rename leaves a new
	// image (seq S) with an old oplog (base < S). Recovery must rebase the
	// file to base S, dropping the imaged prefix, so sequence numbers are
	// never reused.
	j, path := openJournal(t)
	j.Recover(0)
	for i := int64(1); i <= 5; i++ {
		j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i)})
	}
	j.Commit()
	ops, err := j.Recover(3) // image says S=3; file base is 0
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Key != 4 || ops[1].Key != 5 {
		t.Fatalf("rebased suffix = %+v", ops)
	}
	if j.SeqAppended() != 5 {
		t.Fatalf("appended seq after rebase = %d", j.SeqAppended())
	}
	// The file itself was rewritten with base 3.
	raw, err := os.ReadFile(path + ".oplog")
	if err != nil {
		t.Fatal(err)
	}
	base, ok := parseOplogHdr(raw)
	if !ok || base != 3 {
		t.Fatalf("oplog base after rebase = %d (ok=%v), want 3", base, ok)
	}
	if len(raw) != OplogHdrSize+2*OpRecSize {
		t.Fatalf("oplog size after rebase = %d", len(raw))
	}
	// New appends continue at sequence 6.
	j.Append(Op{Kind: OpInsert, Key: 6, Val: 6})
	if j.SeqAppended() != 6 {
		t.Fatalf("appended after rebase+append = %d", j.SeqAppended())
	}
}

func TestRecoverRebasePastHead(t *testing.T) {
	// The image can be ahead of every surviving record (torn tail below
	// S): the oplog must still rebase to S with zero ops to replay.
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
	j.Rotate(j.SeqAppended(), nil) // base is now 1
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
