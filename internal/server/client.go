package server

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"btreeperf/internal/query"
)

// Client speaks the btserved wire protocol. It supports pipelining: one
// goroutine may Send/Flush while another Recvs, and because the server
// answers in request order the n-th Recv matches the n-th Send. A Client
// is otherwise not safe for concurrent use.
//
// With SetOpTimeout, every Recv that may block (and the write side of
// Do) carries a deadline, so a server that dies between Flush and
// response surfaces os.ErrDeadlineExceeded instead of blocking forever; a
// connection closed underneath a blocked Recv surfaces net.ErrClosed.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	wbuf      []byte
	rbuf      []byte
	opTimeout time.Duration
}

// Dial connects to a btserved address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a bound on connection establishment.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (possibly decorated, e.g.
// by internal/faults) in a Client.
func NewClient(conn net.Conn) *Client {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
		bw:   bufio.NewWriterSize(conn, 32<<10),
		wbuf: make([]byte, 0, 32),
		rbuf: make([]byte, MaxPayload),
	}
}

// SetOpTimeout bounds every subsequent Recv that has to wait for the
// wire (and Do's flush) with a deadline; zero restores unbounded blocking. Set it before the client
// is shared between a sending and a receiving goroutine.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// Send buffers one request frame.
func (c *Client) Send(req Request) error {
	c.wbuf = AppendRequest(c.wbuf[:0], req)
	_, err := c.bw.Write(c.wbuf)
	return err
}

// Flush pushes buffered requests to the wire.
func (c *Client) Flush() error {
	if c.opTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opTimeout))
	}
	return c.bw.Flush()
}

// armRead puts the op timeout on the coming read unless the next response
// is already buffered whole, in which case reading it cannot block. Moving
// a deadline moves a runtime timer, at a cost that depends on which
// thread holds the timer at that moment; done for every reply of a
// pipelined burst, which arrives in one segment, it was a tenth of a
// read-heavy load run's CPU.
func (c *Client) armRead() {
	if c.opTimeout > 0 && !frameBuffered(c.br) {
		c.conn.SetReadDeadline(time.Now().Add(c.opTimeout))
	}
}

// Recv reads the next in-order response. Under SetOpTimeout it returns
// os.ErrDeadlineExceeded when no response arrives in time; a Close from
// another goroutine surfaces as net.ErrClosed.
func (c *Client) Recv() (Response, error) {
	c.armRead()
	return ReadResponse(c.br, c.rbuf)
}

// RecvPage reads the next in-order response as a page frame (scan, seek,
// lookup). Because responses carry no opcode, the caller — who knows
// which ops it pipelined, in order — picks Recv or RecvPage per response;
// RecvPage also accepts a bare point-shaped status (a shed or error
// reply), surfacing it as an empty page with that status.
func (c *Client) RecvPage() (Response, error) {
	c.armRead()
	return ReadPageResponse(c.br, c.rbuf)
}

// Do sends one request and waits for its response (no pipelining), read in
// the wire shape the op it just sent answers with: a page for the query
// ops, a point response for the rest.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.Send(req); err != nil {
		return Response{}, err
	}
	if err := c.Flush(); err != nil {
		return Response{}, err
	}
	if isQueryOp(req.Op) {
		return c.RecvPage()
	}
	return c.Recv()
}

// Get looks key up.
func (c *Client) Get(key int64) (uint64, bool, error) {
	resp, err := c.Do(Request{Op: OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Status == StatusOK, nil
}

// Put stores key→val, reporting whether the key was fresh.
func (c *Client) Put(key int64, val uint64) (bool, error) {
	resp, err := c.Do(Request{Op: OpPut, Key: key, Val: val})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// Del removes key, reporting whether it was present.
func (c *Client) Del(key int64) (bool, error) {
	resp, err := c.Do(Request{Op: OpDel, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// Scan fetches one page of [lo, hi): up to limit entries in ascending
// key order plus the continuation token for the next page. Pass a nil
// token for the first page and the previous response's token afterwards;
// a nil returned token means the range is exhausted. limit <= 0 asks for
// the server default.
func (c *Client) Scan(lo, hi int64, limit int, token []byte) ([]query.KV, []byte, error) {
	resp, err := c.Do(Request{Op: OpScan, Key: lo, Hi: hi, Limit: limit, Token: token})
	if err != nil {
		return nil, nil, err
	}
	if resp.Status != StatusOK {
		return nil, nil, fmt.Errorf("server: scan: %s", StatusName(resp.Status))
	}
	return resp.Entries, resp.Token, nil
}

// ScanAll drains [lo, hi) page by page, calling emit for every entry in
// ascending key order.
func (c *Client) ScanAll(lo, hi int64, limit int, emit func(key int64, val uint64)) error {
	var token []byte
	for {
		page, next, err := c.Scan(lo, hi, limit, token)
		if err != nil {
			return err
		}
		for _, e := range page {
			emit(e.Key, e.Val)
		}
		if next == nil {
			return nil
		}
		token = next
	}
}

// SeekGE returns the smallest stored key >= key and its value; ok is false
// when no such key exists.
func (c *Client) SeekGE(key int64) (int64, uint64, bool, error) {
	resp, err := c.Do(Request{Op: OpSeek, Key: key})
	if err != nil {
		return 0, 0, false, err
	}
	if resp.Status != StatusOK {
		return 0, 0, false, fmt.Errorf("server: seek: %s", StatusName(resp.Status))
	}
	if len(resp.Entries) == 0 {
		return 0, 0, false, nil
	}
	return resp.Entries[0].Key, resp.Entries[0].Val, true, nil
}

// Lookup fetches one page of the primary keys whose indexed value is
// val, ascending; the token contract matches Scan. Requires a server
// built with -index (StatusBadRequest otherwise).
func (c *Client) Lookup(val uint64, limit int, token []byte) ([]int64, []byte, error) {
	resp, err := c.Do(Request{Op: OpLookup, Val: val, Limit: limit, Token: token})
	if err != nil {
		return nil, nil, err
	}
	if resp.Status != StatusOK {
		return nil, nil, fmt.Errorf("server: lookup: %s", StatusName(resp.Status))
	}
	keys := make([]int64, len(resp.Entries))
	for i, e := range resp.Entries {
		keys[i] = e.Key
	}
	return keys, resp.Token, nil
}

// Seqs returns the server's per-shard replication sequences, indexed by
// shard: the durable sequence on a journal-backed leader, the applied
// sequence on a follower, zeros on an unreplicated in-memory server.
// The slice length is the server's shard count — how a ReadFloor is
// sized. The page carries one entry per shard, the shard in the key and
// its sequence in the value.
func (c *Client) Seqs() ([]int64, error) {
	resp, err := c.Do(Request{Op: OpSeqs})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("server: seqs: %s", StatusName(resp.Status))
	}
	seqs := make([]int64, len(resp.Entries))
	for _, e := range resp.Entries {
		if e.Key < 0 || e.Key >= int64(len(seqs)) {
			return nil, fmt.Errorf("server: seqs: shard %d out of range", e.Key)
		}
		seqs[e.Key] = int64(e.Val)
	}
	return seqs, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }
