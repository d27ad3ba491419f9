package repl

import (
	"bytes"
	"io"
	"testing"

	"btreeperf/internal/journal"
)

// FuzzReadReplFrame throws arbitrary bytes at the frame reader and every
// payload parser: nothing may panic or over-allocate, and whatever
// parses must re-encode to an equivalent frame (the parsers are the
// trust boundary between processes).
func FuzzReadReplFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, FrameHello, EncodeHello(Hello{ID: 1, Epoch: 2, Seqs: []int64{0, 5}}))
	f.Add(buf.Bytes())
	buf.Reset()
	WriteFrame(&buf, FrameOps, EncodeOps(Ops{Shard: 1, First: 9, Head: 12, Ops: []journal.Op{
		{Kind: journal.OpInsert, Key: 3, Val: 4},
	}}))
	f.Add(buf.Bytes())
	buf.Reset()
	WriteFrame(&buf, FrameOps, EncodeOps(Ops{Shard: 0, Ops: []journal.Op{ // a snapshot page
		{Kind: journal.OpInsert, Key: 1, Val: 2},
		{Kind: journal.OpInsert, Key: 5, Val: 6},
	}}))
	f.Add(buf.Bytes())
	buf.Reset()
	WriteFrame(&buf, FrameHelloAck, EncodeHelloAck(HelloAck{Epoch: 7, Shards: 2}))
	f.Add(buf.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if err != ErrFrameTooLarge && err != io.EOF && err != io.ErrUnexpectedEOF && err.Error() != "repl: empty frame" {
				t.Fatalf("unexpected read error class: %v", err)
			}
			return
		}
		switch typ {
		case FrameHello:
			if h, err := ParseHello(payload); err == nil {
				if !bytes.Equal(EncodeHello(h), payload) {
					t.Fatal("hello round-trip mismatch")
				}
			}
		case FrameHelloAck:
			if a, err := ParseHelloAck(payload); err == nil {
				if !bytes.Equal(EncodeHelloAck(a), payload) {
					t.Fatal("helloack round-trip mismatch")
				}
			}
		case FrameOps:
			if o, err := ParseOps(payload); err == nil {
				if !bytes.Equal(EncodeOps(o), payload) {
					t.Fatal("ops round-trip mismatch")
				}
			}
		case FrameAck:
			if a, err := ParseAck(payload); err == nil {
				if !bytes.Equal(EncodeAck(a), payload) {
					t.Fatal("ack round-trip mismatch")
				}
			}
		case FrameSnapBegin:
			if s, err := ParseSnapBegin(payload); err == nil {
				if !bytes.Equal(EncodeSnapBegin(s), payload) {
					t.Fatal("snapbegin round-trip mismatch")
				}
			}
		case FrameSnapEnd:
			if s, err := ParseSnapEnd(payload); err == nil {
				if !bytes.Equal(EncodeSnapEnd(s), payload) {
					t.Fatal("snapend round-trip mismatch")
				}
			}
		}
	})
}
