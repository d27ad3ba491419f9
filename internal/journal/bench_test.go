package journal

import (
	"os"
	"path/filepath"
	"testing"

	"btreeperf/internal/pagestore"
)

// The oplog's tracked benchmarks (scripts/bench.sh writes them to
// results/BENCH_storage.json). A serving batch is a couple of dozen
// appends and one Commit; the two benchmarks price the halves apart.

const benchBatch = 25 // mutations per group commit, what the disk workload of bench/ averages

// sinkFS swallows writes and syncs: under it a Commit costs what the
// journal itself spends, not what the disk does.
type sinkFS struct{}

type sinkFile struct{ pagestore.File }

func (sinkFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := pagestore.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return sinkFile{f}, nil
}
func (sinkFS) Rename(o, n string) error { return pagestore.OSFS.Rename(o, n) }

func (sinkFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (sinkFile) Sync() error                              { return nil }

func benchJournal(b *testing.B, fs pagestore.FS) *Journal {
	b.Helper()
	j, err := OpenFS(filepath.Join(b.TempDir(), "data.db"), false, fs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { j.Close() })
	if _, err := j.Recover(0); err != nil {
		b.Fatal(err)
	}
	return j
}

// BenchmarkJournalAppend is the journal's own cost per logged mutation:
// the append, plus its share of a commit whose file calls are free.
func BenchmarkJournalAppend(b *testing.B) {
	j := benchJournal(b, sinkFS{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := j.Append(Op{Kind: OpInsert, Key: int64(i), Val: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		if i%benchBatch == benchBatch-1 {
			if err := j.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJournalCommit is one group commit on a real file: a batch of
// appends, then the tail's write and the fsync.
func BenchmarkJournalCommit(b *testing.B) {
	j := benchJournal(b, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < benchBatch; k++ {
			if err := j.Append(Op{Kind: OpInsert, Key: int64(k), Val: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
