// Package pagestore provides fixed-size page storage on a single file:
// logical page ids mapped to file slots, checksummed reads and writes, and
// checkpoints that commit by writing one of two meta pages. It is the raw
// disk substrate under internal/diskbtree, turning the paper's abstract
// "disk cost D" into actual page I/O.
//
// Layout: slots 0 and 1 are the meta pages; every other slot holds a page
// or a page of the slot map. Every slot carries a CRC32 footer verified on
// read. A page id is a name, not an offset: Allocate hands out ids, and
// the store decides which slot each write of a page lands in, through a
// flat map from page id to slot (the Bw-tree's mapping table, here used
// only for durability).
//
// Checkpoints. The newer valid meta page names the committed map, and the
// rule everything else follows from is that no slot the committed map
// names is ever overwritten:
//
//   - The first write of a page after a cut goes to a free slot; later
//     writes in the same interval overwrite that slot.
//   - BeginCut freezes the map as the next checkpoint's. Pages the caller
//     still holds newer than their slot are written with WriteCut; a page
//     written to a new slot after the cut keeps its cut slot in the cut.
//   - WriteMap writes the cut map to free slots and fsyncs; Commit writes
//     the alternate meta page and fsyncs — the commit point — then frees
//     every slot that neither the new map nor a later write names.
//
// So the free set is always the complement of the committed map and the
// writes since it, and Open rebuilds it that way: there is no free list on
// disk. Compact, on a quiescent store, moves the pages above the live
// count into free slots below it, commits and truncates, so a store at
// rest is one tree plus its map.
//
// The store is safe for concurrent use: page I/O runs outside the lock,
// which covers the map and the slot sets only, and the hot-path pair
// ReadInto/WritePage works in a caller-owned page buffer, so a page is
// copied once in each direction and nothing is allocated. Concurrent I/O
// on one page id is the caller's to prevent.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// payloadSize is the per-page space available to callers (the last 4
// bytes hold the checksum).
const payloadSize = PageSize - 4

// PageID identifies a page within a store. Zero is never returned by
// Allocate.
type PageID uint64

const (
	// metaMagic marks a meta page of this layout (version 2).
	metaMagic = 0x32505442 // "BTP2"
	// v1Magic marked the meta page of the version-1 layout, where a page
	// id was its file offset and durability came from a .ckpt image.
	v1Magic = 0x42545045 // "BTPE"

	// metaSlots is the number of meta slots at the head of the file.
	metaSlots = 2
	// mapPerPage is the number of slot entries one map page holds, after
	// its next-page link and entry count.
	mapPerPage = (payloadSize - 8) / 4
)

// ErrLayoutV1 is returned by Open for a file written in the version-1
// layout. It is not converted: rebuild the tree from its data.
var ErrLayoutV1 = errors.New("pagestore: file uses layout version 1 (page id = file offset, .ckpt image); this version reads layout 2 only")

// Store is a page file. Create or open one with Open.
type Store struct {
	f File

	mu    sync.Mutex // the map, the slot sets and the cut, never page I/O
	slot  []uint32   // page id → slot of its latest write; 0 = never written
	fresh []uint64   // bitset by page id: slot[id] was taken since the last cut
	used  []uint64   // bitset by slot: slots no new write may take
	low   uint32     // no free slot below this one
	slots uint32     // the file's length in slots
	gen   uint64     // generation of the committed meta page
	root  PageID     // caller's root page, as committed
	ud    [64]byte   // caller's blob, as committed

	// The cut in flight, from BeginCut to Commit.
	cutting  bool
	cutPages int               // the cut covers page ids below this
	moved    map[PageID]uint32 // cut slot of each page written to a new slot since the cut
	mapSlots []uint32          // the cut map's pages, once WriteMap placed them
	cutErr   error             // first failed cut write: the cut cannot commit

	reads  atomic.Int64
	writes atomic.Int64
}

// pageBufs recycles whole-page scratch buffers for the entry points that
// are handed a bare payload and for the map and meta pages.
var pageBufs = sync.Pool{New: func() any { return new([PageSize]byte) }}

func errOversize(n int) error {
	return fmt.Errorf("pagestore: payload %d exceeds %d", n, payloadSize)
}

func bitGet(b []uint64, i uint32) bool { return b[i/64]&(1<<(i%64)) != 0 }
func bitSet(b []uint64, i uint32)      { b[i/64] |= 1 << (i % 64) }
func bitClear(b []uint64, i uint32)    { b[i/64] &^= 1 << (i % 64) }

// mapPages is the number of map pages a map of n page ids takes.
func mapPages(n int) int { return (n + mapPerPage - 1) / mapPerPage }

// Open opens (creating if necessary) the page store at path.
func Open(path string) (*Store, error) { return OpenFS(path, OSFS) }

// OpenFS is Open through an explicit FS — the injection point for the
// failpoint layer (FailFS) in crash and fault tests. fs nil means OSFS.
// A new store's empty meta page is written and fsynced before OpenFS
// returns, so every non-empty store file has a valid meta page.
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
	s := &Store{f: f, slot: []uint32{0}, fresh: make([]uint64, 1), used: []uint64{1<<metaSlots - 1}, low: metaSlots, slots: metaSlots}
	if st.Size() == 0 {
		err = s.writeMeta(0, 1, 0, [64]byte{})
		if err == nil {
			err = s.Sync()
		}
	} else if st.Size()%PageSize != 0 {
		err = fmt.Errorf("pagestore: file size %d not page-aligned", st.Size())
	} else {
		err = s.load(uint32(st.Size() / PageSize))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// meta is a decoded meta page.
type meta struct {
	gen      uint64
	pages    int
	mapHead  uint32
	mapCount int
	root     PageID
	ud       [64]byte
}

// readMeta decodes meta slot i; ok is false for a torn, blank or foreign
// slot.
func (s *Store) readMeta(i uint32, buf []byte) (m meta, ok bool, err error) {
	if err := s.readSlot(i, buf); err != nil {
		return m, false, nil
	}
	switch binary.LittleEndian.Uint32(buf) {
	case metaMagic:
	case v1Magic:
		return m, false, ErrLayoutV1
	default:
		return m, false, nil
	}
	m.gen = binary.LittleEndian.Uint64(buf[8:])
	m.pages = int(binary.LittleEndian.Uint64(buf[16:]))
	m.mapHead = binary.LittleEndian.Uint32(buf[24:])
	m.mapCount = int(binary.LittleEndian.Uint32(buf[28:]))
	m.root = PageID(binary.LittleEndian.Uint64(buf[32:]))
	copy(m.ud[:], buf[40:])
	return m, true, nil
}

// load reads the newer valid meta page and its map, and rebuilds the slot
// sets: everything the map does not name is free.
func (s *Store) load(fileSlots uint32) error {
	buf := make([]byte, PageSize)
	var cur meta
	found := false
	for i := uint32(0); i < metaSlots && i < fileSlots; i++ {
		m, ok, err := s.readMeta(i, buf)
		if err != nil {
			return err
		}
		if ok && (!found || m.gen > cur.gen) {
			cur, found = m, true
		}
	}
	if !found {
		return fmt.Errorf("pagestore: no valid meta page (not a btreeperf page store)")
	}
	if cur.pages < 1 || (cur.mapCount != mapPages(cur.pages) && (cur.mapCount != 0 || cur.pages != 1)) {
		return fmt.Errorf("pagestore: meta page names %d pages in %d map pages", cur.pages, cur.mapCount)
	}
	s.gen, s.root, s.ud, s.slots = cur.gen, cur.root, cur.ud, max(fileSlots, metaSlots)
	s.slot = make([]uint32, cur.pages)
	s.fresh = make([]uint64, (cur.pages+63)/64)
	s.used = make([]uint64, (s.slots+63)/64)
	s.used[0] |= 1<<metaSlots - 1
	at := cur.mapHead
	for i := 0; i < cur.mapCount; i++ {
		if at < metaSlots || at >= fileSlots {
			return fmt.Errorf("pagestore: map page %d at slot %d outside the file", i, at)
		}
		if err := s.readSlot(at, buf); err != nil {
			return err
		}
		bitSet(s.used, at)
		n := int(binary.LittleEndian.Uint32(buf[4:]))
		if n != min(mapPerPage, cur.pages-i*mapPerPage) {
			return fmt.Errorf("pagestore: map page %d holds %d entries", i, n)
		}
		for j := 0; j < n; j++ {
			// Slot 0: an id handed out and never written (or id 0).
			if sl := binary.LittleEndian.Uint32(buf[8+4*j:]); sl != 0 {
				if sl < metaSlots || sl >= fileSlots || bitGet(s.used, sl) {
					return fmt.Errorf("pagestore: map names slot %d for page %d", sl, i*mapPerPage+j)
				}
				s.slot[i*mapPerPage+j] = sl
				bitSet(s.used, sl)
			}
		}
		at = binary.LittleEndian.Uint32(buf)
	}
	s.low = s.nextFree(metaSlots)
	return nil
}

// Close closes the file. Writes since the last Commit are not part of any
// checkpoint: the next Open does not see them.
func (s *Store) Close() error { return s.f.Close() }

// Pages returns the number of page ids handed out, plus one for id 0.
func (s *Store) Pages() int { s.mu.Lock(); defer s.mu.Unlock(); return len(s.slot) }

// Slots returns the file's length in slots (its high-water mark: it only
// falls when Compact truncates) and how many of them are free.
func (s *Store) Slots() (total, free int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inUse := 0
	for _, w := range s.used {
		inUse += bits.OnesCount64(w)
	}
	return int(s.slots), int(s.slots) - inUse
}

// Slot returns the slot page id's latest write went to; 0 if it has none.
func (s *Store) Slot(id PageID) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slot) {
		return 0
	}
	return s.slot[id]
}

// Stats returns cumulative page reads and writes.
func (s *Store) Stats() (reads, writes int64) { return s.reads.Load(), s.writes.Load() }

// Root returns the caller's root page id as of the committed checkpoint.
func (s *Store) Root() PageID { s.mu.Lock(); defer s.mu.Unlock(); return s.root }

// UserData returns the caller's meta blob as of the committed checkpoint.
func (s *Store) UserData() [64]byte { s.mu.Lock(); defer s.mu.Unlock(); return s.ud }

// Allocate returns a fresh page id. The page has no slot until it is
// first written.
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(len(s.slot))
	s.slot = append(s.slot, 0)
	if int(id)/64 == len(s.fresh) {
		s.fresh = append(s.fresh, 0)
	}
	return id, nil
}

// nextFree returns the lowest free slot at or above from. Caller holds mu.
func (s *Store) nextFree(from uint32) uint32 {
	for w := from / 64; int(w) < len(s.used); w++ {
		word := s.used[w]
		if w == from/64 {
			word |= 1<<(from%64) - 1
		}
		if word != ^uint64(0) {
			return w*64 + uint32(bits.TrailingZeros64(^word))
		}
	}
	return max(uint32(len(s.used))*64, from)
}

// takeSlot marks the lowest free slot at or above floor used and returns
// it, growing the file's slot count when it lies past the end. Caller
// holds mu.
func (s *Store) takeSlot(floor uint32) uint32 {
	r := s.nextFree(max(floor, s.low))
	for int(r/64) >= len(s.used) {
		s.used = append(s.used, 0)
	}
	bitSet(s.used, r)
	if floor <= s.low {
		s.low = r + 1
	}
	s.slots = max(s.slots, r+1)
	return r
}

// checkID validates a page id and a page buffer. Caller holds mu.
func (s *Store) checkID(id PageID, buf []byte) error {
	if id == 0 {
		return fmt.Errorf("pagestore: page 0 is not a page")
	}
	if int(id) >= len(s.slot) {
		return fmt.Errorf("pagestore: page %d beyond end (%d pages)", id, len(s.slot))
	}
	if len(buf) != PageSize {
		return fmt.Errorf("pagestore: page buffer of %d bytes, want %d", len(buf), PageSize)
	}
	return nil
}

// place picks the slot a normal write of page id goes to: its own slot
// if it took one since the cut, else a free one — the cut or the
// committed map may name the one it has. Caller holds mu.
func (s *Store) place(id PageID) uint32 {
	if bitGet(s.fresh, uint32(id)) {
		return s.slot[id]
	}
	if s.cutting && int(id) < s.cutPages {
		if _, ok := s.moved[id]; !ok {
			s.moved[id] = s.slot[id]
		}
	}
	r := s.takeSlot(0)
	s.slot[id] = r
	bitSet(s.fresh, uint32(id))
	return r
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
	s.mu.Lock()
	err := s.checkID(id, buf)
	var at uint32
	if err == nil {
		at = s.place(id)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.writeSlot(at, buf, id)
}

// ReadInto reads the page into buf (exactly PageSize bytes) and verifies
// its checksum; the payload is buf[:PageSize−4]. Nothing is allocated, and
// reads of different pages do not wait for each other.
func (s *Store) ReadInto(id PageID, buf []byte) error {
	s.mu.Lock()
	err := s.checkID(id, buf)
	var at uint32
	if err == nil {
		if at = s.slot[id]; at == 0 {
			err = fmt.Errorf("pagestore: page %d was never written", id)
		}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.readSlot(at, buf); err != nil {
		return fmt.Errorf("pagestore: page %d: %w", id, err)
	}
	s.reads.Add(1)
	return nil
}

// writeSlot checksums buf and writes it at slot at, on behalf of page id
// (0 for a map or meta page, which the write count leaves out).
func (s *Store) writeSlot(at uint32, buf []byte, id PageID) error {
	binary.LittleEndian.PutUint32(buf[payloadSize:], crc32.ChecksumIEEE(buf[:payloadSize]))
	if _, err := s.f.WriteAt(buf, int64(at)*PageSize); err != nil {
		if id != 0 {
			return fmt.Errorf("pagestore: write page %d: %w", id, err)
		}
		return fmt.Errorf("pagestore: write slot %d: %w", at, err)
	}
	if id != 0 {
		s.writes.Add(1)
	}
	return nil
}

// readSlot reads slot at into buf and verifies its checksum.
func (s *Store) readSlot(at uint32, buf []byte) error {
	if _, err := s.f.ReadAt(buf, int64(at)*PageSize); err != nil {
		return fmt.Errorf("read slot %d: %w", at, err)
	}
	want := binary.LittleEndian.Uint32(buf[payloadSize:])
	if got := crc32.ChecksumIEEE(buf[:payloadSize]); got != want {
		return fmt.Errorf("slot %d checksum mismatch (%08x != %08x)", at, got, want)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (s *Store) Sync() error { return s.f.Sync() }

// BeginCut freezes the map as the next checkpoint's: every page id handed
// out so far is in the cut, at the slot its latest write went to. ids are
// the pages whose newest contents are not in their slot — the caller
// holds them — and each must reach the cut through WriteCut before it is
// written in any other way. It returns how many map pages the cut takes.
func (s *Store) BeginCut(ids []PageID) (mapPagesCut int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A held page whose slot was taken since the last cut keeps it: its
	// cut write may go there, as no checkpoint names it.
	keep := ids[:0:0]
	for _, id := range ids {
		if bitGet(s.fresh, uint32(id)) {
			keep = append(keep, id)
		}
	}
	clear(s.fresh)
	for _, id := range keep {
		bitSet(s.fresh, uint32(id))
	}
	s.cutting, s.cutPages, s.cutErr = true, len(s.slot), nil
	s.moved = map[PageID]uint32{}
	return mapPages(s.cutPages)
}

// WriteCut writes buf as page id's contents in the cut begun last — the
// page's slot until its next write, which goes elsewhere.
func (s *Store) WriteCut(id PageID, buf []byte) error {
	s.mu.Lock()
	err := s.checkID(id, buf)
	var at uint32
	if err == nil {
		if at = s.slot[id]; !bitGet(s.fresh, uint32(id)) {
			at = s.takeSlot(0)
			s.slot[id] = at
		}
		bitClear(s.fresh, uint32(id))
	}
	s.mu.Unlock()
	if err == nil {
		err = s.writeSlot(at, buf, id)
	}
	if err != nil {
		s.mu.Lock()
		if s.cutErr == nil {
			s.cutErr = err
		}
		s.mu.Unlock()
	}
	return err
}

// AdoptCut records that page id's latest write, issued before or after
// BeginCut, holds its contents as of the cut: that slot goes into the cut
// and the page's next write goes elsewhere. The caller guarantees the
// page did not change between the cut and that write's completion.
func (s *Store) AdoptCut(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.moved, id)
	bitClear(s.fresh, uint32(id))
}

// WriteMap writes the cut's map to free slots at or above the compact
// bound, where Compact, which needs every slot below it, will not meet
// them. Once the caller has fsynced the file, every page the cut names and
// the map are durable, and only Commit's meta page is missing.
func (s *Store) WriteMap() error { return s.writeMap(false) }

func (s *Store) writeMap(low bool) error {
	s.mu.Lock()
	if err := s.cutErr; err != nil || !s.cutting {
		s.mu.Unlock()
		if err == nil {
			err = errors.New("pagestore: WriteMap without a cut")
		}
		return fmt.Errorf("pagestore: cut incomplete: %w", err)
	}
	n := s.cutPages
	floor := uint32(metaSlots + n - 1 + mapPages(n))
	if low {
		floor = 0
	}
	s.mapSlots = s.mapSlots[:0]
	for range mapPages(n) {
		s.mapSlots = append(s.mapSlots, s.takeSlot(floor))
	}
	s.mu.Unlock()

	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	for i, at := range s.mapSlots {
		clear(buf[:])
		var next uint32
		if i+1 < len(s.mapSlots) {
			next = s.mapSlots[i+1]
		}
		lo, hi := i*mapPerPage, min((i+1)*mapPerPage, n)
		binary.LittleEndian.PutUint32(buf[0:], next)
		binary.LittleEndian.PutUint32(buf[4:], uint32(hi-lo))
		s.mu.Lock()
		for id := lo; id < hi; id++ {
			sl, ok := s.moved[PageID(id)]
			if !ok {
				sl = s.slot[id]
			}
			binary.LittleEndian.PutUint32(buf[8+4*(id-lo):], sl)
		}
		s.mu.Unlock()
		if err := s.writeSlot(at, buf[:], 0); err != nil {
			return err
		}
	}
	return nil
}

// writeMeta writes generation gen's meta page into its slot.
func (s *Store) writeMeta(gen uint64, pages int, root PageID, ud [64]byte) error {
	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	clear(buf[:])
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], 2)
	binary.LittleEndian.PutUint64(buf[8:], gen)
	binary.LittleEndian.PutUint64(buf[16:], uint64(pages))
	if len(s.mapSlots) > 0 {
		binary.LittleEndian.PutUint32(buf[24:], s.mapSlots[0])
	}
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(s.mapSlots)))
	binary.LittleEndian.PutUint64(buf[32:], uint64(root))
	copy(buf[40:], ud[:])
	return s.writeSlot(uint32(gen%metaSlots), buf[:], 0)
}

// Commit commits the cut: it writes the alternate meta page, naming the
// map WriteMap wrote and the caller's root and blob, and fsyncs it — the
// commit point. It then frees every slot that neither the new map nor a
// write since the cut names: the previous checkpoint's, and the slots the
// cut superseded.
func (s *Store) Commit(root PageID, ud [64]byte) error {
	s.mu.Lock()
	ok, gen, pages := s.cutting && len(s.mapSlots) == mapPages(s.cutPages), s.gen+1, s.cutPages
	s.mu.Unlock()
	if !ok {
		return errors.New("pagestore: Commit without a written map")
	}
	if err := s.writeMeta(gen, pages, root, ud); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen, s.root, s.ud = gen, root, ud
	clear(s.used)
	s.used[0] |= 1<<metaSlots - 1
	for _, sl := range s.slot {
		if sl != 0 {
			bitSet(s.used, sl)
		}
	}
	for _, sl := range s.moved {
		bitSet(s.used, sl)
	}
	for _, sl := range s.mapSlots {
		bitSet(s.used, sl)
	}
	s.low = s.nextFree(metaSlots)
	s.cutting, s.moved = false, nil
	return nil
}

// Compact shrinks the file of a quiescent store whose every page is in the
// committed checkpoint to its compact bound — two meta slots, one slot per
// page, one per map page. It moves each page above the bound into a free
// slot below it (free slots are never named by the committed map), writes
// the map below it, commits, and truncates. A crash at any point leaves
// either checkpoint whole.
func (s *Store) Compact() error {
	s.mu.Lock()
	n := len(s.slot)
	bound := uint32(metaSlots + n - 1 + mapPages(n))
	dirty, short := s.cutting, s.slots <= bound
	for _, w := range s.fresh {
		dirty = dirty || w != 0
	}
	s.mu.Unlock()
	if dirty {
		return errors.New("pagestore: Compact with writes outside the committed checkpoint")
	}
	if short {
		return nil
	}
	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	s.BeginCut(nil)
	for id := 1; id < n; id++ {
		from := s.slot[id]
		if from < bound {
			continue
		}
		if err := s.readSlot(from, buf[:]); err != nil {
			return fmt.Errorf("pagestore: compact page %d: %w", id, err)
		}
		s.mu.Lock()
		to := s.takeSlot(0)
		s.slot[id] = to
		s.mu.Unlock()
		if to >= bound {
			return fmt.Errorf("pagestore: compact found no free slot below %d for page %d", bound, id)
		}
		if err := s.writeSlot(to, buf[:], PageID(id)); err != nil {
			return err
		}
	}
	if err := s.writeMap(true); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	if err := s.Commit(s.root, s.ud); err != nil {
		return err
	}
	if err := s.f.Truncate(int64(bound) * PageSize); err != nil {
		return fmt.Errorf("pagestore: compact: %w", err)
	}
	s.mu.Lock()
	s.slots = bound
	s.used = s.used[:(bound+63)/64]
	s.mu.Unlock()
	return s.Sync()
}
