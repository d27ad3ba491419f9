// Package pagestore provides fixed-size page storage on a single file:
// allocation with a free list, checksummed reads and writes, and a
// durable meta page. It is the raw disk substrate under
// internal/diskbtree, turning the paper's abstract "disk cost D" into
// actual page I/O.
//
// Layout: page 0 is the meta page; all other pages are user pages. Every
// page carries a CRC32 footer verified on read. The store is safe for
// concurrent use: page I/O on different pages runs in parallel (the lock
// covers allocation state and the meta page only), and the hot-path pair
// ReadInto/WritePage works in a caller-owned page buffer, so a page is
// copied once in each direction and nothing is allocated.
package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// payloadSize is the per-page space available to callers (the last 4
// bytes hold the checksum).
const payloadSize = PageSize - 4

// PageID identifies a page within a store. Zero is the meta page and is
// never returned by Allocate.
type PageID uint64

// metaMagic marks a formatted store.
const metaMagic = 0x42545045 // "BTPE"

// Store is a page file. Create or open one with Open.
type Store struct {
	f     File
	pages atomic.Uint64 // total pages including meta; grows under mu

	mu       sync.Mutex // allocation state and the meta page, never page I/O
	freeHead PageID     // head of the free list (0 = empty)
	root     PageID     // caller-managed root pointer stored in the meta page
	userData [64]byte   // caller-managed blob stored in the meta page

	reads  atomic.Int64
	writes atomic.Int64
}

// pageBufs recycles whole-page scratch buffers for the entry points that
// are handed a bare payload (Write, Free, the meta page).
var pageBufs = sync.Pool{New: func() any { return new([PageSize]byte) }}

func errOversize(n int) error {
	return fmt.Errorf("pagestore: payload %d exceeds %d", n, payloadSize)
}

// Open opens (creating if necessary) the page store at path.
func Open(path string) (*Store, error) { return OpenFS(path, OSFS) }

// OpenFS is Open through an explicit FS — the injection point for the
// failpoint layer (FailFS) in crash and fault tests. fs nil means OSFS.
func OpenFS(path string, fs FS) (*Store, error) {
	if fs == nil {
		fs = OSFS
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	s := &Store{f: f}
	if st.Size() == 0 {
		// Fresh file: write the meta page.
		s.pages.Store(1)
		if err := s.writeMetaLocked(); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: file size %d not page-aligned", st.Size())
	}
	if err := s.readMetaLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Close flushes the meta page and closes the file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeMetaLocked(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Pages returns the total number of pages (including meta and freed ones).
func (s *Store) Pages() int { return int(s.pages.Load()) }

// Stats returns cumulative page reads and writes.
func (s *Store) Stats() (reads, writes int64) { return s.reads.Load(), s.writes.Load() }

// Root returns the caller-managed root page id from the meta page.
func (s *Store) Root() PageID { s.mu.Lock(); defer s.mu.Unlock(); return s.root }

// SetRoot durably records the caller's root page id.
func (s *Store) SetRoot(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.root = id
	return s.writeMetaLocked()
}

// UserData returns the caller-managed meta blob.
func (s *Store) UserData() [64]byte { s.mu.Lock(); defer s.mu.Unlock(); return s.userData }

// SetUserData durably records the caller-managed meta blob.
func (s *Store) SetUserData(b [64]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.userData = b
	return s.writeMetaLocked()
}

// Allocate returns a fresh (or recycled) page id.
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freeHead != 0 {
		id := s.freeHead
		// The freed page's payload holds the next free id.
		buf := pageBufs.Get().(*[PageSize]byte)
		defer pageBufs.Put(buf)
		if err := s.ReadInto(id, buf[:]); err != nil {
			return 0, err
		}
		s.freeHead = PageID(binary.LittleEndian.Uint64(buf[:]))
		return id, nil
	}
	// Extension is a pure counter bump: the file grows lazily when the
	// page is first written (every live page is written before any read —
	// the buffer pool flushes dirty frames, Free writes the free-list
	// link). Recovery never trusts this file anyway; it is rebuilt from
	// the checkpoint image.
	return PageID(s.pages.Add(1) - 1), nil
}

// Free returns a page to the free list. The page's contents are destroyed.
func (s *Store) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var link [8]byte
	binary.LittleEndian.PutUint64(link[:], uint64(s.freeHead))
	if err := s.Write(id, link[:]); err != nil {
		return err
	}
	s.freeHead = id
	return nil
}

// Write stores payload (at most PageSize−4 bytes) into the page, zero
// padded. It copies the payload once, into a recycled page buffer; a
// caller that can build its page in place uses WritePage.
func (s *Store) Write(id PageID, payload []byte) error {
	if len(payload) > payloadSize {
		return errOversize(len(payload))
	}
	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	clear(buf[copy(buf[:], payload):])
	return s.WritePage(id, buf[:])
}

// Read returns the page's payload (PageSize−4 bytes) in a fresh buffer,
// verifying the checksum. A caller with a buffer of its own uses ReadInto.
func (s *Store) Read(id PageID) ([]byte, error) {
	buf := make([]byte, PageSize)
	if err := s.ReadInto(id, buf); err != nil {
		return nil, err
	}
	return buf[:payloadSize], nil
}

// WritePage checksums and writes a whole page the caller built in buf
// (exactly PageSize bytes: the payload in buf[:PageSize−4], and the last
// four bytes, which WritePage overwrites with the checksum). The buffer is
// written as is — no copy, no allocation — and is the caller's again on
// return. Writes to different pages do not wait for each other.
func (s *Store) WritePage(id PageID, buf []byte) error {
	if err := s.checkPage(id, buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[payloadSize:], crc32.ChecksumIEEE(buf[:payloadSize]))
	if _, err := s.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	s.writes.Add(1)
	return nil
}

// ReadInto reads the page into buf (exactly PageSize bytes) and verifies
// its checksum; the payload is buf[:PageSize−4]. Nothing is allocated, and
// reads of different pages do not wait for each other.
func (s *Store) ReadInto(id PageID, buf []byte) error {
	if err := s.checkPage(id, buf); err != nil {
		return err
	}
	if _, err := s.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	s.reads.Add(1)
	want := binary.LittleEndian.Uint32(buf[payloadSize:])
	if got := crc32.ChecksumIEEE(buf[:payloadSize]); got != want {
		return fmt.Errorf("pagestore: page %d checksum mismatch (%08x != %08x)", id, got, want)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (s *Store) Sync() error { return s.f.Sync() }

func (s *Store) checkPage(id PageID, buf []byte) error {
	if id == 0 {
		return fmt.Errorf("pagestore: page 0 is the meta page")
	}
	if pages := s.pages.Load(); uint64(id) >= pages {
		return fmt.Errorf("pagestore: page %d beyond end (%d pages)", id, pages)
	}
	if len(buf) != PageSize {
		return fmt.Errorf("pagestore: page buffer of %d bytes, want %d", len(buf), PageSize)
	}
	return nil
}

// writeMetaLocked serializes the meta page.
func (s *Store) writeMetaLocked() error {
	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	clear(buf[:])
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], s.pages.Load())
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.freeHead))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.root))
	copy(buf[32:], s.userData[:])
	binary.LittleEndian.PutUint32(buf[payloadSize:], crc32.ChecksumIEEE(buf[:payloadSize]))
	if _, err := s.f.WriteAt(buf[:], 0); err != nil {
		return fmt.Errorf("pagestore: write meta: %w", err)
	}
	return nil
}

func (s *Store) readMetaLocked() error {
	buf := make([]byte, PageSize)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("pagestore: read meta: %w", err)
	}
	want := binary.LittleEndian.Uint32(buf[payloadSize:])
	if got := crc32.ChecksumIEEE(buf[:payloadSize]); got != want {
		return fmt.Errorf("pagestore: meta checksum mismatch")
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return fmt.Errorf("pagestore: bad magic (not a btreeperf page store)")
	}
	s.pages.Store(binary.LittleEndian.Uint64(buf[8:]))
	s.freeHead = PageID(binary.LittleEndian.Uint64(buf[16:]))
	s.root = PageID(binary.LittleEndian.Uint64(buf[24:]))
	copy(s.userData[:], buf[32:])
	return nil
}
