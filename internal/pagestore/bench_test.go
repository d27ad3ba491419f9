package pagestore

import (
	"path/filepath"
	"testing"
)

// The page file's tracked benchmarks (scripts/bench.sh writes them to
// results/BENCH_storage.json): the two calls the buffer pool makes, on a
// file small enough to sit in the OS page cache — the cost measured is
// the store's (checksum, syscall), not a device's.

const benchPages = 1024

func benchStore(b *testing.B) (*Store, []PageID, []byte) {
	b.Helper()
	s, err := Open(filepath.Join(b.TempDir(), "pages.db"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	ids := make([]PageID, benchPages)
	for i := range ids {
		if ids[i], err = s.Allocate(); err == nil {
			err = s.WritePage(ids[i], page)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return s, ids, page
}

func BenchmarkPagestoreReadInto(b *testing.B) {
	s, ids, page := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadInto(ids[i*389%benchPages], page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPagestoreWritePage(b *testing.B) {
	s, ids, page := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePage(ids[i*389%benchPages], page); err != nil {
			b.Fatal(err)
		}
	}
}
