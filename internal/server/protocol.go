// Package server is btserved's serving subsystem: a pipelined binary
// key-value protocol over TCP in front of the concurrent B-tree, with the
// paper's lock-queue telemetry measured live and exposed over HTTP.
//
// # Wire protocol
//
// Every message is a length-prefixed frame: a 4-byte big-endian payload
// length followed by the payload. Requests carry an opcode, a key, and —
// depending on the op — a value, a range bound, a page limit, or a
// continuation token:
//
//	get:    op(1) key(8)
//	put:    op(1) key(8) val(8)
//	del:    op(1) key(8)
//	ping:   op(1)
//	seek:   op(1) key(8)
//	scan:   op(1) lo(8) hi(8) limit(2) toklen(2) token(toklen)
//	lookup: op(1) val(8) limit(2) toklen(2) token(toklen)
//	getseq: op(1) key(8) minseq(8)
//	seqs:   op(1)
//
// Point responses carry a status byte, plus the value for a get hit:
//
//	hit:  status(1) val(8)
//	else: status(1)
//
// Query ops (scan, seek, lookup) answer with the page shape:
//
//	page: status(1) count(2) [key(8) val(8)]×count toklen(2) token(toklen)
//
// A scan pages through keys in [lo, hi) in ascending order: the client
// passes an empty token on the first request and the previous response's
// token after that; an empty response token means the range is
// exhausted. hi is exclusive, so key math.MaxInt64 (the tree's +inf
// sentinel) is not scannable. A seek answers at most one entry — the
// smallest stored key >= key — and never a token. A lookup pages, with
// the same token discipline as scan, through the primary keys whose
// value equals val on a server running the secondary index (btserved
// -index); each entry's val echoes the looked-up value. A shed query op
// may be answered with a bare 1-byte status frame; page readers accept
// both shapes.
//
// Responses are returned in request order, so clients may pipeline any
// number of requests on one connection without tagging them; the client
// knows which response shape to expect from the op it sent.
//
// On every server one connection's requests apply in request order: a
// request sees the effect of every earlier request of its connection,
// answered or not (TestPipelinedRequestsApplyInOrder).
//
// # Status × op semantics
//
//	               get          put           del          ping  scan/seek/lookup
//	OK             hit          fresh insert  key removed  pong  page follows (possibly empty)
//	Miss           absent key   replaced old  absent key   —     never: an empty page is OK
//	BadRequest     unknown opcode on any op   —            —     malformed/mismatched token,
//	                                                             or lookup without -index
//	Busy           retryable: the connection cap was hit (any op), or a put/del's
//	               semi-sync follower acks missed ReplAckTimeout on a leader
//	Overload       governor shedding updates: put and del only — query ops are
//	               read traffic and are never governor-shed
//	Unavail        storage engine poisoned (failed fsync); applies to every
//	               op that touches an engine (all but ping)
//	Lagging        getseq only: a replication follower's applied sequence for
//	               the key's shard is below the request's minseq — read the
//	               leader instead (a follower never serves past its bound)
//	NotLeader      put/del on a replication follower; mutate the leader
//
// A getseq is a get carrying a bounded-staleness floor; on a leader (or
// an unreplicated server) it behaves exactly like get. A seqs request
// answers the page shape with one entry per shard: key = shard index,
// val = that shard's replication sequence (durable on a leader, applied
// on a follower). In replicated-leader mode, acknowledged put/del
// responses carry the shard's durable sequence in the value field
// (point-hit shape); clients feed it back as minseq to make follower
// reads read-your-writes.
//
// An empty scan or lookup page is StatusOK with count=0 — StatusMiss is a
// point-op verdict about one key and is never used for ranges, where
// "nothing in range" is a successful answer, not a failure to find.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"btreeperf/internal/query"
)

// Opcodes.
const (
	OpGet  byte = 1
	OpPut  byte = 2
	OpDel  byte = 3
	OpPing byte = 4
	// OpScan pages through [lo, hi); OpSeek returns the smallest key >=
	// key; OpLookup pages through the primary keys holding a value (needs
	// the secondary index). See the package comment for wire shapes.
	//
	// The index contract: at every quiescent point (no mutation in
	// flight, every follower caught up) Lookup agrees with the primary —
	// its pages are exactly the keys a full scan finds holding the value,
	// in the same order, on a leader and on any follower built with the
	// index, whether the follower streamed the oplog or took a snapshot
	// resync — and it answers StatusUnavail, never a page, while any
	// engine is poisoned. Checked by TestLookupVsBruteForce,
	// TestFollowerIndexMatchesLeader and TestLookupUnavailWhenPoisoned.
	OpScan   byte = 5
	OpSeek   byte = 6
	OpLookup byte = 7
	// OpSeqs answers one page of (shard index, replication sequence)
	// pairs: the highest durable sequence per shard on a leader, the
	// highest applied sequence per shard on a follower. OpGetSeq is a get
	// carrying a bounded-staleness floor: a follower whose applied
	// sequence for the key's shard is below MinSeq answers StatusLagging
	// instead of possibly-stale data.
	//
	// The read-floor contract: a client that feeds the sequence stamped
	// on each of its acked puts and dels into a ReadFloor, and sends
	// ReadFloor.For(key) as the MinSeq of every OpGetSeq, never reads
	// from a follower a value older than its own last acked write of that
	// key: until the follower has applied that write the answer is
	// StatusLagging, and afterwards it is the written value or a later
	// one. Checked by TestReadFloorContract.
	OpSeqs   byte = 8
	OpGetSeq byte = 9
)

// Statuses.
const (
	// StatusOK: get hit, fresh put, del of a present key, ping, or a
	// query-op page (including an empty one — see the package comment).
	StatusOK byte = 0
	// StatusMiss: get or del of an absent key, or a put that replaced an
	// existing key's value. Never used for query ops.
	StatusMiss byte = 1
	// StatusBadRequest: malformed or unknown request payload, a
	// continuation token that fails to decode or does not match the
	// server's shard count, or a lookup against a server running without
	// the secondary index.
	StatusBadRequest byte = 2
	// StatusBusy: the connection cap was hit (sent once, then the conn
	// closes), or on a semi-sync leader a mutation's follower acks missed
	// ReplAckTimeout (durable here, possibly applied). Retryable.
	StatusBusy byte = 3
	// StatusOverload: the overload governor is shedding update traffic
	// because the measured root writer utilization ρ_w crossed the
	// saturation threshold (§6's λ_{ρ=.5}). Only puts and deletes are
	// shed — scans, seeks, and lookups are read traffic and pass;
	// retry after backing off.
	StatusOverload byte = 4
	// StatusUnavail: the storage engine refused the operation — a failed
	// group-commit fsync or an earlier storage error has poisoned it
	// (fail stop: nothing is acknowledged that a crash could lose). Not
	// retryable on this server; the operation was NOT made durable even
	// if it briefly applied in memory.
	StatusUnavail byte = 5
	// StatusLagging: a replication follower refused an OpGetSeq because
	// its applied sequence for the key's shard is below the request's
	// MinSeq — answering would risk serving stale data past the client's
	// staleness bound. The client should read the leader (or retry the
	// follower after it catches up). Never returned by a leader.
	StatusLagging byte = 6
	// StatusNotLeader: a put or del arrived at a replication follower.
	// Followers apply mutations only from the leader's oplog stream;
	// direct that traffic at the leader.
	StatusNotLeader byte = 7
)

// StatusName renders a status byte for error messages and logs.
func StatusName(status byte) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusMiss:
		return "miss"
	case StatusBadRequest:
		return "bad-request"
	case StatusBusy:
		return "busy"
	case StatusOverload:
		return "overload"
	case StatusUnavail:
		return "unavail"
	case StatusLagging:
		return "lagging"
	case StatusNotLeader:
		return "not-leader"
	default:
		return fmt.Sprintf("status(%d)", status)
	}
}

// MaxPayload bounds a frame payload; anything larger is a protocol
// error. It is sized for the largest page response: 1 status + 2 count +
// 16·MaxScanLimit entries + 2 toklen + MaxTokenSize ≤ 8192.
const MaxPayload = 8192

// MaxScanLimit caps a scan/lookup page's entry count; DefaultScanLimit
// is used when a request carries limit 0. Requests past the cap are
// clamped, not rejected.
const (
	MaxScanLimit     = 256
	DefaultScanLimit = 64
)

// Request is one decoded client request.
type Request struct {
	Op    byte
	Key   int64  // get/put/del key; seek key; scan lo
	Val   uint64 // put value; lookup value
	Hi    int64  // scan: exclusive upper bound
	Limit int    // scan/lookup: page entry cap; 0 = DefaultScanLimit

	// MinSeq is OpGetSeq's bounded-staleness floor: the lowest replication
	// sequence the answering shard must have applied. Clients learn it
	// from the sequence a replicated leader stamps onto mutation acks.
	MinSeq int64

	// Token is the scan/lookup continuation token (nil = first page). It
	// is copied out of the read buffer at decode time: the buffer is
	// reused across the frames of a batch. Point ops never touch it, so
	// the point path stays allocation-free.
	Token []byte
}

// Response is one decoded server response.
type Response struct {
	Status byte
	HasVal bool
	Val    uint64

	// Page-shaped responses (scan/seek/lookup). Entries is nil on an
	// empty page; Token is nil when the range is exhausted.
	Page    bool
	Entries []query.KV
	Token   []byte
}

// AppendRequest appends req's frame to dst.
func AppendRequest(dst []byte, req Request) []byte {
	switch req.Op {
	case OpScan:
		n := 1 + 8 + 8 + 2 + 2 + len(req.Token)
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		dst = append(dst, req.Op)
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Key))
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Hi))
		dst = binary.BigEndian.AppendUint16(dst, uint16(req.Limit))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Token)))
		return append(dst, req.Token...)
	case OpLookup:
		n := 1 + 8 + 2 + 2 + len(req.Token)
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		dst = append(dst, req.Op)
		dst = binary.BigEndian.AppendUint64(dst, req.Val)
		dst = binary.BigEndian.AppendUint16(dst, uint16(req.Limit))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Token)))
		return append(dst, req.Token...)
	}
	n := 1 + 8
	switch req.Op {
	case OpPut, OpGetSeq:
		n = 1 + 8 + 8
	case OpPing, OpSeqs:
		n = 1
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, req.Op)
	if req.Op != OpPing && req.Op != OpSeqs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Key))
	}
	if req.Op == OpPut {
		dst = binary.BigEndian.AppendUint64(dst, req.Val)
	}
	if req.Op == OpGetSeq {
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.MinSeq))
	}
	return dst
}

// AppendResponse appends resp's frame to dst: the page shape when
// resp.Page is set, the point shape otherwise.
func AppendResponse(dst []byte, resp Response) []byte {
	if resp.Page {
		n := 1 + 2 + 16*len(resp.Entries) + 2 + len(resp.Token)
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		dst = append(dst, resp.Status)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Entries)))
		for _, e := range resp.Entries {
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.Key))
			dst = binary.BigEndian.AppendUint64(dst, e.Val)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Token)))
		return append(dst, resp.Token...)
	}
	n := 1
	if resp.HasVal {
		n = 1 + 8
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, resp.Status)
	if resp.HasVal {
		dst = binary.BigEndian.AppendUint64(dst, resp.Val)
	}
	return dst
}

// readFull is io.ReadFull on the concrete *bufio.Reader: going through
// io.ReadFull's io.Reader parameter would force the destination slice to
// escape to the heap (one allocation per frame on the serving hot path).
// The destination here is always a caller-owned reusable buffer.
func readFull(br *bufio.Reader, p []byte) error {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readFrame reads one length-prefixed payload into buf (which must have
// MaxPayload capacity), returning the payload slice. io.EOF is returned
// unwrapped only when the stream ends cleanly between frames.
//
// The header is read with Peek+Discard rather than into a local array:
// bufio can pass a Read destination through to the underlying io.Reader,
// so a local header buffer would escape to the heap on every frame.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // clean EOF between frames stays io.EOF
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxPayload {
		return nil, fmt.Errorf("server: frame payload %d bytes (max %d)", n, MaxPayload)
	}
	br.Discard(4)
	payload := buf[:n]
	if err := readFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// tokenSuffix validates and copies the trailing limit(2) toklen(2)
// token(toklen) fields of a scan/lookup request payload starting at off.
// The token length is bounded by the frame length checks alone — a
// toklen that disagrees with the payload length is a protocol error, so
// the decoder can never over-read. Token CONTENT is not validated here:
// a token that fails to decode answers StatusBadRequest at execution.
func tokenSuffix(payload []byte, off int, req *Request) error {
	req.Limit = int(binary.BigEndian.Uint16(payload[off:]))
	tokLen := int(binary.BigEndian.Uint16(payload[off+2:]))
	if tokLen > query.MaxTokenSize || len(payload) != off+4+tokLen {
		return fmt.Errorf("server: op %d token length %d in %d-byte payload", req.Op, tokLen, len(payload))
	}
	if tokLen > 0 {
		req.Token = append([]byte(nil), payload[off+4:]...)
	}
	return nil
}

// ReadRequest reads and decodes one request frame. buf must have at least
// MaxPayload capacity and is reused across calls.
func ReadRequest(br *bufio.Reader, buf []byte) (Request, error) {
	payload, err := readFrame(br, buf)
	if err != nil {
		return Request{}, err
	}
	var req Request
	req.Op = payload[0]
	switch req.Op {
	case OpPing, OpSeqs:
		if len(payload) != 1 {
			return Request{}, fmt.Errorf("server: op %d with %d-byte payload, want 1", req.Op, len(payload))
		}
	case OpGet, OpDel, OpSeek:
		if len(payload) != 9 {
			return Request{}, fmt.Errorf("server: op %d with %d-byte payload, want 9", req.Op, len(payload))
		}
		req.Key = int64(binary.BigEndian.Uint64(payload[1:9]))
	case OpPut:
		if len(payload) != 17 {
			return Request{}, fmt.Errorf("server: put with %d-byte payload, want 17", len(payload))
		}
		req.Key = int64(binary.BigEndian.Uint64(payload[1:9]))
		req.Val = binary.BigEndian.Uint64(payload[9:17])
	case OpGetSeq:
		if len(payload) != 17 {
			return Request{}, fmt.Errorf("server: getseq with %d-byte payload, want 17", len(payload))
		}
		req.Key = int64(binary.BigEndian.Uint64(payload[1:9]))
		req.MinSeq = int64(binary.BigEndian.Uint64(payload[9:17]))
	case OpScan:
		if len(payload) < 21 {
			return Request{}, fmt.Errorf("server: scan with %d-byte payload, want >= 21", len(payload))
		}
		req.Key = int64(binary.BigEndian.Uint64(payload[1:9]))
		req.Hi = int64(binary.BigEndian.Uint64(payload[9:17]))
		if err := tokenSuffix(payload, 17, &req); err != nil {
			return Request{}, err
		}
	case OpLookup:
		if len(payload) < 13 {
			return Request{}, fmt.Errorf("server: lookup with %d-byte payload, want >= 13", len(payload))
		}
		req.Val = binary.BigEndian.Uint64(payload[1:9])
		if err := tokenSuffix(payload, 9, &req); err != nil {
			return Request{}, err
		}
	default:
		return Request{}, fmt.Errorf("server: unknown opcode %d", req.Op)
	}
	return req, nil
}

// ReadResponse reads and decodes one point-shaped response frame. buf
// must have at least MaxPayload capacity and is reused across calls.
// Use ReadPageResponse for the responses to scan/seek/lookup requests —
// responses are untagged, so the shape to read is determined by the op
// that was sent (responses arrive in request order).
func ReadResponse(br *bufio.Reader, buf []byte) (Response, error) {
	payload, err := readFrame(br, buf)
	if err != nil {
		return Response{}, err
	}
	resp := Response{Status: payload[0]}
	switch len(payload) {
	case 1:
	case 9:
		resp.HasVal = true
		resp.Val = binary.BigEndian.Uint64(payload[1:9])
	default:
		return Response{}, fmt.Errorf("server: response with %d-byte payload", len(payload))
	}
	return resp, nil
}

// ReadPageResponse reads and decodes one page-shaped response frame (the
// response to a scan, seek, or lookup). A bare 1-byte status frame is
// also accepted: shed paths may answer a query op with just a status.
// Entries and token are copied into fresh slices — the page path is not
// allocation-free, by design; the point path is.
func ReadPageResponse(br *bufio.Reader, buf []byte) (Response, error) {
	payload, err := readFrame(br, buf)
	if err != nil {
		return Response{}, err
	}
	resp := Response{Status: payload[0]}
	if len(payload) == 1 {
		return resp, nil
	}
	if len(payload) < 5 {
		return Response{}, fmt.Errorf("server: page response with %d-byte payload", len(payload))
	}
	resp.Page = true
	count := int(binary.BigEndian.Uint16(payload[1:3]))
	if count > MaxScanLimit {
		return Response{}, fmt.Errorf("server: page response with %d entries (max %d)", count, MaxScanLimit)
	}
	off := 3 + 16*count
	if len(payload) < off+2 {
		return Response{}, fmt.Errorf("server: page response truncated at %d bytes for %d entries", len(payload), count)
	}
	if count > 0 {
		resp.Entries = make([]query.KV, count)
		for i := range resp.Entries {
			resp.Entries[i].Key = int64(binary.BigEndian.Uint64(payload[3+16*i:]))
			resp.Entries[i].Val = binary.BigEndian.Uint64(payload[11+16*i:])
		}
	}
	tokLen := int(binary.BigEndian.Uint16(payload[off:]))
	if tokLen > query.MaxTokenSize || len(payload) != off+2+tokLen {
		return Response{}, fmt.Errorf("server: page response token length %d in %d-byte payload", tokLen, len(payload))
	}
	if tokLen > 0 {
		resp.Token = append([]byte(nil), payload[off+2:]...)
	}
	return resp, nil
}
