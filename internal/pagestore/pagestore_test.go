package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// commit takes the store's map as a checkpoint: every page written so far
// is in it, at its latest write.
func commit(t *testing.T, s *Store, root PageID, ud [64]byte) {
	t.Helper()
	s.BeginCut(nil)
	if err := s.WriteMap(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(root, ud); err != nil {
		t.Fatal(err)
	}
}

// copyFile copies a store's file as a crash at that instant would leave
// it: writes since the last commit are there, but in free slots.
func copyFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "copy.db")
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s, path := openTemp(t)
	id, _ := s.Allocate()
	if err := s.Write(id, []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	unwritten, _ := s.Allocate() // a page id handed out and never written
	var ud [64]byte
	copy(ud[:], "metadata blob")
	commit(t, s, id, ud)
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
	if _, err := s2.Read(unwritten); err == nil {
		t.Fatal("a page never written reads back after reopen")
	}
}

// TestCommittedSlotNeverOverwritten: after a commit, the next write of a
// page goes to a free slot — the committed one still holds the committed
// contents, which a crash copy opens to — and a second write in the same
// interval overwrites the first one's slot in place.
func TestCommittedSlotNeverOverwritten(t *testing.T) {
	s, path := openTemp(t)
	defer s.Close()
	ids := make([]PageID, 5)
	for i := range ids {
		ids[i], _ = s.Allocate()
		if err := s.Write(ids[i], []byte{'c', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, s, ids[0], [64]byte{})
	committed := map[uint32]bool{}
	for _, id := range ids {
		committed[s.Slot(id)] = true
	}
	for round := byte(1); round <= 2; round++ {
		for i, id := range ids {
			if err := s.Write(id, []byte{'n', byte(i), round}); err != nil {
				t.Fatal(err)
			}
			if at := s.Slot(id); committed[at] {
				t.Fatalf("round %d: page %d written to slot %d, which the committed map names", round, id, at)
			}
		}
	}
	at := s.Slot(ids[0])
	if err := s.Write(ids[0], []byte("again")); err != nil {
		t.Fatal(err)
	}
	if s.Slot(ids[0]) != at {
		t.Fatalf("second write in one interval moved page %d from slot %d to %d", ids[0], at, s.Slot(ids[0]))
	}
	crashed, err := Open(copyFile(t, path))
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	for i, id := range ids {
		got, err := crashed.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 'c' || got[1] != byte(i) {
			t.Fatalf("page %d reads %q after a crash, want the committed contents", id, got[:3])
		}
	}
}

// TestFreedSlotsRecycleAfterCommit: a commit frees the slots the previous
// checkpoint named and this one does not, and the next writes take them,
// so rewriting every page each interval holds the file at two copies.
func TestFreedSlotsRecycleAfterCommit(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	ids := make([]PageID, 8)
	for i := range ids {
		ids[i], _ = s.Allocate()
	}
	var total []int
	for round := 0; round < 4; round++ {
		for _, id := range ids {
			if err := s.Write(id, []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, s, ids[0], [64]byte{})
		n, _ := s.Slots()
		total = append(total, n)
	}
	if total[3] != total[1] || total[2] != total[1] {
		t.Fatalf("file grew while every interval rewrote the same pages: slots %v", total)
	}
	if _, free := s.Slots(); free < len(ids) {
		t.Fatalf("%d free slots after a commit that superseded %d", free, len(ids))
	}
}

// TestFreeSetRebuiltAtOpen: Open frees every slot the committed map does
// not name, with nothing on disk but the map.
func TestFreeSetRebuiltAtOpen(t *testing.T) {
	s, path := openTemp(t)
	ids := make([]PageID, 6)
	for i := range ids {
		ids[i], _ = s.Allocate()
	}
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			s.Write(id, []byte{byte(round)})
		}
		commit(t, s, ids[0], [64]byte{})
	}
	total, free := s.Slots()
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if t2, f2 := s2.Slots(); t2 != total || f2 != free {
		t.Fatalf("reopened with %d slots, %d free; closed with %d, %d free", t2, f2, total, free)
	}
	if err := s2.Write(ids[0], []byte("reuse")); err != nil {
		t.Fatal(err)
	}
	if t2, _ := s2.Slots(); t2 != total {
		t.Fatalf("a write after reopen grew the file (%d -> %d slots) with %d free", total, t2, free)
	}
}

// TestTornMetaFallsBack tears the newer meta page's write: Open takes the
// older one, whose map and pages are untouched.
func TestTornMetaFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	probe := NewFailFS(nil, FailPlan{})
	build := func(fs FS) (*Store, []PageID) {
		s, err := OpenFS(path, fs)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]PageID, 3)
		for i := range ids {
			ids[i], _ = s.Allocate()
			s.Write(ids[i], []byte("old"))
		}
		commit(t, s, ids[0], [64]byte{1})
		for _, id := range ids {
			s.Write(id, []byte("new"))
		}
		s.BeginCut(nil)
		if err := s.WriteMap(); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return s, ids
	}
	ps, _ := build(probe)
	metaWrite := probe.Ops() + 1 // Commit's first syscall writes the meta page
	ps.Close()
	os.Remove(path)

	fs := NewFailFS(nil, FailPlan{FailWriteAt: metaWrite, TornBytes: 100})
	s, ids := build(fs)
	if err := s.Commit(ids[1], [64]byte{2}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit over a torn meta write = %v", err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Root() != ids[0] || s2.UserData()[0] != 1 {
		t.Fatalf("opened root %d blob %d, want the older checkpoint's %d, 1", s2.Root(), s2.UserData()[0], ids[0])
	}
	for _, id := range ids {
		if got, err := s2.Read(id); err != nil || string(got[:3]) != "old" {
			t.Fatalf("page %d = %q, %v after falling back", id, got[:3], err)
		}
	}
}

// TestCompactToBound: Compact leaves exactly two meta slots, one slot per
// page and one per map page, and the store reopens to the same pages.
func TestCompactToBound(t *testing.T) {
	s, path := openTemp(t)
	var ids []PageID
	for i := 0; i < 1500; i++ { // two map pages
		id, _ := s.Allocate()
		ids = append(ids, id)
	}
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			if err := s.Write(id, []byte{byte(round), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, s, ids[0], [64]byte{})
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	want := int64(len(ids)+2+2) * PageSize
	if st, err := os.Stat(path); err != nil || st.Size() != want {
		t.Fatalf("compacted file: %v, %v bytes; want %d", err, st.Size(), want)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		if got, err := s2.Read(id); err != nil || got[0] != 2 || got[1] != byte(i) {
			t.Fatalf("page %d after compaction: %v, %v", id, got[:2], err)
		}
	}
}

// TestLayoutV1Refused: a file in the layout where page ids were offsets
// is refused with a versioned error, not read as something else.
func TestLayoutV1Refused(t *testing.T) {
	page := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(page, v1Magic)
	binary.LittleEndian.PutUint32(page[payloadSize:], crc32.ChecksumIEEE(page[:payloadSize]))
	path := filepath.Join(t.TempDir(), "v1.db")
	if err := os.WriteFile(path, page, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrLayoutV1) {
		t.Fatalf("Open of a version-1 file = %v, want ErrLayoutV1", err)
	}
}

func TestInvalidIDs(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if err := s.Write(0, nil); err == nil {
		t.Error("write to page 0 accepted")
	}
	if _, err := s.Read(999); err == nil {
		t.Error("read past end accepted")
	}
	id, _ := s.Allocate()
	if _, err := s.Read(id); err == nil {
		t.Error("read of a page never written accepted")
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
	commit(t, s, id, [64]byte{})
	at := s.Slot(id)
	s.Close()

	// Flip a byte in the page body.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(at)*PageSize+3); err != nil {
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
		t.Error("page 0 or a page beyond the end was accepted")
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
