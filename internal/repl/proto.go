// Package repl implements oplog replication for the sharded serving
// engine: a leader-side Hub that ships sequence-numbered journal records
// to follower processes, and a follower-side Applier that replays them
// into its own engine and acknowledges the highest contiguously applied
// sequence per shard.
//
// The design follows the journal's durability discipline end to end:
//
//   - The Hub only ever ships records at or below the shard journal's
//     durable sequence (journal.Tail enforces this), so a leader crash
//     can never retract a shipped record.
//   - A follower's per-shard position means one thing: a sequence applied
//     in the hub's current epoch, or 0 for "claims nothing". The hub tails
//     shard s only when the Hello's epoch is its own and the position is
//     above 0 and still retained (>= Journal.LowestSeq()); in every other
//     case — a fresh node, -resync, a torn state file, another lineage, an
//     evicted position, an interrupted resync — it sends a snapshot.
//   - A snapshot is a fuzzy engine scan captured at a known sequence,
//     shipped as Ops insert records between SnapBegin and SnapEnd, then
//     the log is tailed from that sequence. Replay is idempotent
//     (insert/delete are set-semantics), so a snapshot overlapping
//     subsequent ops converges.
//   - A position drops to 0 at two moments only: a shard's SnapBegin, and
//     the applier adopting an epoch other than the one it held. So no
//     saved or served position ever claims a half-loaded shard or a
//     sequence of another lineage.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"btreeperf/internal/journal"
)

// Frame types on the replication connection. Every frame is a 4-byte
// big-endian length (of what follows, type byte included), a type byte,
// and a type-specific payload with little-endian integer fields. Type 6
// (snapshot key/value pairs) is retired: snapshot pages are FrameOps.
const (
	FrameHello     = 1 // follower → leader: id, epoch, per-shard resume seqs
	FrameHelloAck  = 2 // leader → follower: leader epoch, shard count
	FrameOps       = 3 // leader → follower: oplog records (or snapshot inserts) for one shard
	FrameAck       = 4 // follower → leader: highest contiguously applied seq
	FrameSnapBegin = 5 // leader → follower: snapshot resync of one shard starts
	FrameSnapEnd   = 7 // leader → follower: snapshot complete, log tail follows
	FrameError     = 8 // either direction: fatal protocol error, then close
)

// MaxFrame bounds a frame's encoded size; a peer announcing more is
// corrupt or hostile and the connection is dropped.
const MaxFrame = 1 << 20

// MaxOpsBatch is the number of oplog records per Ops frame.
const MaxOpsBatch = 1024

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("repl: frame exceeds MaxFrame")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if 1+len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr[0:], uint32(1+len(payload)))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// ReadFrame reads one frame, enforcing MaxFrame.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lb[:])
	if n < 1 {
		return 0, nil, errors.New("repl: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// Hello is the follower's opening frame.
type Hello struct {
	ID    uint64  // persistent random follower identity
	Epoch uint64  // leader epoch the resume seqs belong to (0 = none)
	Seqs  []int64 // per-shard highest applied global sequence
}

// EncodeHello encodes h.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 8+8+4+8*len(h.Seqs))
	binary.LittleEndian.PutUint64(b[0:], h.ID)
	binary.LittleEndian.PutUint64(b[8:], h.Epoch)
	binary.LittleEndian.PutUint32(b[16:], uint32(len(h.Seqs)))
	for i, s := range h.Seqs {
		binary.LittleEndian.PutUint64(b[20+8*i:], uint64(s))
	}
	return b
}

// ParseHello decodes a Hello payload.
func ParseHello(b []byte) (Hello, error) {
	if len(b) < 20 {
		return Hello{}, errors.New("repl: short hello")
	}
	n := int(binary.LittleEndian.Uint32(b[16:]))
	if n < 0 || len(b) != 20+8*n {
		return Hello{}, errors.New("repl: malformed hello")
	}
	h := Hello{
		ID:    binary.LittleEndian.Uint64(b[0:]),
		Epoch: binary.LittleEndian.Uint64(b[8:]),
		Seqs:  make([]int64, n),
	}
	for i := range h.Seqs {
		h.Seqs[i] = int64(binary.LittleEndian.Uint64(b[20+8*i:]))
	}
	return h, nil
}

// HelloAck is the leader's handshake reply.
type HelloAck struct {
	Epoch  uint64 // the leader's current epoch; the follower adopts it
	Shards int    // the leader's shard count
}

// EncodeHelloAck encodes a.
func EncodeHelloAck(a HelloAck) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b[0:], a.Epoch)
	binary.LittleEndian.PutUint32(b[8:], uint32(a.Shards))
	return b
}

// ParseHelloAck decodes a HelloAck payload.
func ParseHelloAck(b []byte) (HelloAck, error) {
	if len(b) != 12 {
		return HelloAck{}, errors.New("repl: malformed helloack")
	}
	return HelloAck{
		Epoch:  binary.LittleEndian.Uint64(b[0:]),
		Shards: int(binary.LittleEndian.Uint32(b[8:])),
	}, nil
}

// Ops is a batch of oplog records for one shard: records carrying global
// sequences First..First+len(Ops)-1. Head is the leader's durable head
// for the shard at send time, letting the follower measure its own lag.
// Between a shard's SnapBegin and SnapEnd an Ops frame is a snapshot page
// instead: inserts with First and Head zero, applied without a sequence.
type Ops struct {
	Shard int
	First int64
	Head  int64
	Ops   []journal.Op
}

// EncodeOps encodes o.
func EncodeOps(o Ops) []byte {
	b := opsHeader(o.Shard, o.First, o.Head, len(o.Ops))
	for _, op := range o.Ops {
		b = journal.AppendEncodedOp(b, op)
	}
	return b
}

// opsHeader starts an Ops payload with room for n records.
func opsHeader(shard int, first, head int64, n int) []byte {
	b := make([]byte, 24, 24+n*journal.OpRecSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(shard))
	binary.LittleEndian.PutUint64(b[4:], uint64(first))
	binary.LittleEndian.PutUint64(b[12:], uint64(head))
	binary.LittleEndian.PutUint32(b[20:], uint32(n))
	return b
}

// ParseOps decodes an Ops payload. The records reuse the journal's CRC
// framing, so a corrupted record fails decode here, not at apply time.
func ParseOps(b []byte) (Ops, error) {
	if len(b) < 24 {
		return Ops{}, errors.New("repl: short ops")
	}
	n := int(binary.LittleEndian.Uint32(b[20:]))
	if n < 0 || n > MaxOpsBatch || len(b) != 24+n*journal.OpRecSize {
		return Ops{}, errors.New("repl: malformed ops")
	}
	ops := journal.DecodeOps(b[24:])
	if len(ops) != n {
		return Ops{}, fmt.Errorf("repl: ops batch decoded %d/%d records", len(ops), n)
	}
	return Ops{
		Shard: int(binary.LittleEndian.Uint32(b[0:])),
		First: int64(binary.LittleEndian.Uint64(b[4:])),
		Head:  int64(binary.LittleEndian.Uint64(b[12:])),
		Ops:   ops,
	}, nil
}

// Ack reports the follower's highest contiguously applied sequence for
// one shard (also sent after a snapshot, at the snapshot's sequence).
type Ack struct {
	Shard int
	Seq   int64
}

// EncodeAck encodes a.
func EncodeAck(a Ack) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], uint32(a.Shard))
	binary.LittleEndian.PutUint64(b[4:], uint64(a.Seq))
	return b
}

// ParseAck decodes an Ack payload.
func ParseAck(b []byte) (Ack, error) {
	if len(b) != 12 {
		return Ack{}, errors.New("repl: malformed ack")
	}
	return Ack{
		Shard: int(binary.LittleEndian.Uint32(b[0:])),
		Seq:   int64(binary.LittleEndian.Uint64(b[4:])),
	}, nil
}

// EncodeSnapBegin opens a snapshot resync for one shard: the follower
// drops the shard's position to 0, discards its state and applies the
// Ops pages that follow.
func EncodeSnapBegin(shard int) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(shard))
	return b
}

// ParseSnapBegin decodes a SnapBegin payload.
func ParseSnapBegin(b []byte) (int, error) {
	if len(b) != 4 {
		return 0, errors.New("repl: malformed snapbegin")
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// SnapEnd closes a shard's snapshot stream. Seq is the durable sequence
// the fuzzy snapshot is consistent with: the scan started at it, so the
// snapshot plus an idempotent replay of every record after Seq converges
// to the leader's state. The follower adopts Seq as its applied position.
type SnapEnd struct {
	Shard int
	Seq   int64
}

// EncodeSnapEnd encodes s.
func EncodeSnapEnd(s SnapEnd) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], uint32(s.Shard))
	binary.LittleEndian.PutUint64(b[4:], uint64(s.Seq))
	return b
}

// ParseSnapEnd decodes a SnapEnd payload.
func ParseSnapEnd(b []byte) (SnapEnd, error) {
	if len(b) != 12 {
		return SnapEnd{}, errors.New("repl: malformed snapend")
	}
	return SnapEnd{
		Shard: int(binary.LittleEndian.Uint32(b[0:])),
		Seq:   int64(binary.LittleEndian.Uint64(b[4:])),
	}, nil
}
