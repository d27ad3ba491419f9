package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// MaxShards bounds how many per-shard cursors a continuation token may
// carry. It exists so a token's wire size is bounded (MaxTokenSize) and
// a hostile token cannot make the server allocate per its count byte;
// it comfortably exceeds any shard count the serving layer runs.
const MaxShards = 64

// MaxTokenSize is the largest encoded token: one count byte plus an
// 8-byte cursor per shard.
const MaxTokenSize = 1 + 8*MaxShards

// ErrBadToken reports a continuation token that is not a valid encoding
// (wrong length, zero or oversized shard count). The serving layer maps
// it to StatusBadRequest; it is never a panic.
var ErrBadToken = errors.New("query: malformed continuation token")

// EncodeToken appends the wire encoding of the per-shard cursors to dst:
// a count byte followed by each cursor as a big-endian 8-byte key. The
// token is opaque to clients; only its bounded size is contractual.
func EncodeToken(dst []byte, cursors []int64) []byte {
	if len(cursors) == 0 || len(cursors) > MaxShards {
		panic(fmt.Sprintf("query: EncodeToken with %d cursors", len(cursors)))
	}
	dst = append(dst, byte(len(cursors)))
	for _, c := range cursors {
		dst = binary.BigEndian.AppendUint64(dst, uint64(c))
	}
	return dst
}

// DecodeToken parses a token produced by EncodeToken, validating shape
// strictly: any length that does not exactly match the declared cursor
// count is ErrBadToken. The cursors themselves are arbitrary int64s —
// semantic validation (against the request's range and the server's
// shard count) is the caller's job.
func DecodeToken(tok []byte) ([]int64, error) {
	return AppendCursors(nil, tok)
}

// AppendCursors is DecodeToken into the caller's memory: it appends the
// token's cursors to dst, and returns dst unchanged with ErrBadToken.
func AppendCursors(dst []int64, tok []byte) ([]int64, error) {
	if len(tok) < 1 {
		return dst, ErrBadToken
	}
	n := int(tok[0])
	if n == 0 || n > MaxShards || len(tok) != 1+8*n {
		return dst, ErrBadToken
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, int64(binary.BigEndian.Uint64(tok[1+8*i:])))
	}
	return dst, nil
}
