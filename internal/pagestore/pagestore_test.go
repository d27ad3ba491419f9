package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"btreeperf/internal/xrand"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestAllocateWriteRead(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("allocated meta page")
	}
	data := []byte("hello pages")
	if err := s.Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("read %q", got[:len(data)])
	}
	if len(got) != PageSize-4 {
		t.Fatalf("payload size %d", len(got))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s, path := openTemp(t)
	id, _ := s.Allocate()
	if err := s.Write(id, []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoot(id); err != nil {
		t.Fatal(err)
	}
	var ud [64]byte
	copy(ud[:], "metadata blob")
	if err := s.SetUserData(ud); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Root() != id {
		t.Fatalf("root %d, want %d", s2.Root(), id)
	}
	if got := s2.UserData(); got != ud {
		t.Fatalf("user data %q", got[:16])
	}
	data, err := s2.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("persistent")) {
		t.Fatalf("data %q", data[:16])
	}
}

func TestFreeListRecycles(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	before := s.Pages()
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	// LIFO recycling: b then a, without growing the file.
	c, _ := s.Allocate()
	d, _ := s.Allocate()
	if c != b || d != a {
		t.Fatalf("recycled %d,%d want %d,%d", c, d, b, a)
	}
	if s.Pages() != before {
		t.Fatalf("file grew during recycling: %d -> %d", before, s.Pages())
	}
}

func TestFreeListSurvivesReopen(t *testing.T) {
	s, path := openTemp(t)
	a, _ := s.Allocate()
	s.Free(a)
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	b, _ := s2.Allocate()
	if b != a {
		t.Fatalf("free list lost: got %d want %d", b, a)
	}
}

func TestInvalidIDs(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if err := s.Write(0, nil); err == nil {
		t.Error("write to meta page accepted")
	}
	if _, err := s.Read(999); err == nil {
		t.Error("read past end accepted")
	}
	if err := s.Free(0); err == nil {
		t.Error("free of meta page accepted")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	id, _ := s.Allocate()
	if err := s.Write(id, make([]byte, PageSize)); err == nil {
		t.Error("oversize payload accepted")
	}
	if err := s.Write(id, make([]byte, PageSize-4)); err != nil {
		t.Errorf("max payload rejected: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s, path := openTemp(t)
	id, _ := s.Allocate()
	if err := s.Write(id, []byte("important")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a byte in the page body.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(id)*PageSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Read(id); err == nil {
		t.Fatal("corrupted page read succeeded")
	}
}

func TestNotAStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	if err := os.WriteFile(path, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("junk file opened as store")
	}
	// Misaligned file.
	path2 := filepath.Join(t.TempDir(), "short.db")
	if err := os.WriteFile(path2, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path2); err == nil {
		t.Fatal("misaligned file opened as store")
	}
}

func TestConcurrentAllocWriteRead(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := xrand.New(uint64(w))
			ids := make([]PageID, 0, perWorker)
			payloads := make(map[PageID]byte)
			for i := 0; i < perWorker; i++ {
				id, err := s.Allocate()
				if err != nil {
					errs <- err
					return
				}
				b := byte(src.IntN(256))
				if err := s.Write(id, []byte{b, byte(w)}); err != nil {
					errs <- err
					return
				}
				ids = append(ids, id)
				payloads[id] = b
			}
			for _, id := range ids {
				data, err := s.Read(id)
				if err != nil {
					errs <- err
					return
				}
				if data[0] != payloads[id] || data[1] != byte(w) {
					errs <- os.ErrInvalid
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	reads, writes := s.Stats()
	if reads == 0 || writes == 0 {
		t.Fatal("stats not counted")
	}
}

func TestAllocatedIDsUnique(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	seen := map[PageID]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	dup := false
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id, err := s.Allocate()
				if err != nil {
					return
				}
				mu.Lock()
				if seen[id] {
					dup = true
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if dup {
		t.Fatal("duplicate page id allocated")
	}
}

func TestCloneFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.db")
	dst := filepath.Join(dir, "dst.db")
	want := []byte("checkpoint image bytes")
	if err := os.WriteFile(src, want, 0o644); err != nil {
		t.Fatal(err)
	}
	// Pre-populate dst with something longer, so the truncate matters.
	if err := os.WriteFile(dst, make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CloneFile(nil, src, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("clone = %q (%d bytes), want %q", got, len(got), want)
	}
	if err := CloneFile(nil, filepath.Join(dir, "missing"), dst); err == nil {
		t.Fatal("clone of missing source succeeded")
	}
}

func TestWriteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	// Probe: how many bytes does one page write cost?
	probe := NewFailFS(nil, FailPlan{})
	s, err := OpenFS(filepath.Join(dir, "probe.db"), probe)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate()
	if err := s.Write(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	total := probe.BytesWritten() // up to and including the page write
	s.Close()
	if total == 0 {
		t.Fatal("probe counted no bytes")
	}

	// Budget one byte short of the workload: the last write comes up
	// short with ErrNoSpace, and every write after fails too.
	fs := NewFailFS(nil, FailPlan{WriteBudget: total - 1})
	s2, err := OpenFS(filepath.Join(dir, "full.db"), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	id2, _ := s2.Allocate()
	if err := s2.Write(id2, []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write on full disk: %v", err)
	}
	if err := s2.Write(id2, []byte("y")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second write on full disk: %v", err)
	}
}

func TestSync(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	id, _ := s.Allocate()
	s.Write(id, []byte("durable"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// ReadInto and WritePage work in the caller's page buffer: the page is
// checksummed where it lies and copied once, by the kernel, and nothing
// is allocated. Read and Write are the same calls behind a buffer of the
// store's choosing.
func TestPageBufferIO(t *testing.T) {
	s, _ := openTemp(t)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	if err := s.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id) // the wrapper sees what the in-place call wrote
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page[:PageSize-4]) {
		t.Fatal("Read does not return the payload WritePage wrote")
	}
	if err := s.Write(id, []byte("short payload")); err != nil { // and the other way round
		t.Fatal(err)
	}
	if err := s.ReadInto(id, page); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("short payload"), make([]byte, 100)...); !bytes.Equal(page[:len(want)], want) {
		t.Fatal("ReadInto does not return the zero-padded payload Write wrote")
	}
	for _, bad := range [][]byte{nil, page[:PageSize-4], make([]byte, PageSize+1)} {
		if s.ReadInto(id, bad) == nil || s.WritePage(id, bad) == nil {
			t.Errorf("a %d-byte buffer was accepted as a page", len(bad))
		}
	}
	if s.ReadInto(0, page) == nil || s.WritePage(0, page) == nil || s.WritePage(id+1, page) == nil {
		t.Error("the meta page or a page beyond the end was accepted")
	}

	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WritePage: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.ReadInto(id, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadInto: %v allocs/op, want 0", n)
	}
}
