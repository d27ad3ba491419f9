package journal

import (
	"os"
	"sync"
	"testing"
)

// Tail from seq 0 replays the whole retained history in order, across a
// segment boundary and into the active oplog, respecting max.
func TestTailFromZeroAcrossBoundary(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)
	j.SetRetention(func() int64 { return 0 }, 1<<20)

	appendN(t, j, 0, 4)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil) // seals seqs 1..4
	appendN(t, j, 4, 3)            // active: seqs 5..7
	j.Commit()

	tl := j.Tail(0)
	defer tl.Close()
	seq := int64(0)
	for seq < 7 {
		first, ops, err := tl.Next(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) == 0 {
			t.Fatalf("tail dried up at seq %d", seq)
		}
		if first != seq+1 {
			t.Fatalf("chunk starts at %d, want %d", first, seq+1)
		}
		for i, op := range ops {
			if want := seq + int64(i); op.Key != want {
				t.Fatalf("seq %d has key %d, want %d", first+int64(i), op.Key, want)
			}
		}
		seq += int64(len(ops))
	}
	if first, ops, err := tl.Next(3); err != nil || len(ops) != 0 || first != 0 {
		t.Fatalf("drained tail returned %d/%d/%v, want 0/0/nil", first, len(ops), err)
	}
	if tl.Pos() != 7 {
		t.Fatalf("Pos = %d, want 7", tl.Pos())
	}
}

// A tail must never serve a record ahead of the durability point: a
// leader crash could still lose it, and a follower that applied it would
// silently diverge.
func TestTailStopsAtDurable(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)

	appendN(t, j, 0, 2)
	j.Commit()
	appendN(t, j, 2, 3) // appended, not yet committed

	tl := j.Tail(0)
	defer tl.Close()
	first, ops, err := tl.Next(100)
	if err != nil || first != 1 || len(ops) != 2 {
		t.Fatalf("Next = %d/%d/%v, want 1/2/nil (durable bound)", first, len(ops), err)
	}
	if _, ops, _ := tl.Next(100); len(ops) != 0 {
		t.Fatalf("tail served %d unsynced records", len(ops))
	}
	j.Commit()
	if first, ops, err := tl.Next(100); err != nil || first != 3 || len(ops) != 3 {
		t.Fatalf("Next after commit = %d/%d/%v, want 3/3/nil", first, len(ops), err)
	}
}

// Regression (tail-reader torn-read edge): a reader that reaches EOF in
// the middle of an entry — the writer is mid-append, or the read raced a
// file swap — must consume the complete prefix and retry from the entry
// boundary, not surface an error. Simulated deterministically by
// truncating the file mid-record while the journal's counters still
// promise more, then restoring the missing bytes.
func TestTailEOFMidEntryRetriesFromBoundary(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	appendN(t, j, 0, 5)
	j.Commit()

	oplog := path + ".oplog"
	full, err := os.ReadFile(oplog)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(OplogHdrSize + 3*OpRecSize + 10) // mid-record 4
	if err := os.Truncate(oplog, cut); err != nil {
		t.Fatal(err)
	}

	tl := j.Tail(0)
	defer tl.Close()
	first, ops, err := tl.Next(100)
	if err != nil {
		t.Fatalf("torn tail surfaced error: %v", err)
	}
	if first != 1 || len(ops) != 3 {
		t.Fatalf("Next on torn file = %d/%d, want the complete prefix 1/3", first, len(ops))
	}
	// Still torn: poll again, still no error, no progress.
	if _, ops, err := tl.Next(100); err != nil || len(ops) != 0 {
		t.Fatalf("retry on torn file = %d ops / %v, want 0/nil", len(ops), err)
	}

	// Writer finishes the entry (and the one after): reader resumes from
	// the record boundary and sees both, intact.
	f, err := os.OpenFile(oplog, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(full[cut:], cut); err != nil {
		t.Fatal(err)
	}
	f.Close()
	first, ops, err = tl.Next(100)
	if err != nil || first != 4 || len(ops) != 2 {
		t.Fatalf("Next after completion = %d/%d/%v, want 4/2/nil", first, len(ops), err)
	}
	if ops[0].Key != 3 || ops[1].Key != 4 {
		t.Fatalf("resumed records = %+v, want keys 3,4", ops)
	}
}

// A tail racing a live writer — appends, group commits, and sealing
// checkpoints all concurrent — must deliver every record exactly once,
// in order, with correct sequence numbers.
func TestTailConcurrentWriter(t *testing.T) {
	const total = 2000
	j, _ := openJournal(t)
	j.Recover(0)
	j.SetRetention(func() int64 { return 0 }, 64<<20)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < total; i++ {
			if err := j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i) * 3}); err != nil {
				t.Error(err)
				return
			}
			if i%17 == 0 {
				if err := j.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
			if i%479 == 478 {
				if _, err := j.Rotate(j.SeqAppended(), nil); err != nil {
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
	next := int64(1)
	for next <= total {
		first, ops, err := tl.Next(64)
		if err != nil {
			t.Fatalf("at seq %d: %v", next, err)
		}
		if len(ops) == 0 {
			continue
		}
		if first != next {
			t.Fatalf("chunk starts at %d, want %d", first, next)
		}
		for i, op := range ops {
			seq := first + int64(i)
			if op.Key != seq-1 || op.Val != uint64(seq-1)*3 {
				t.Fatalf("seq %d = %+v, want key %d", seq, op, seq-1)
			}
		}
		next += int64(len(ops))
	}
	wg.Wait()
}
