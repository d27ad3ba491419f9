package diskbtree

import (
	"testing"

	"btreeperf/internal/pagestore"
)

// encodePage returns n's page image.
func encodePage(n node) []byte {
	page := make([]byte, pagestore.PageSize)
	n.encode(page)
	return page
}

// FuzzDecodeNode ensures arbitrary page bytes never panic the decoder —
// they must either round out to a node or return an error. (Corrupted
// pages are already caught by the pagestore checksum; this guards the
// parser itself.)
func FuzzDecodeNode(f *testing.F) {
	// Seed with real encodings.
	leaf := newNode(1, 3)
	leaf.set([]int64{1, 5, 9}, []uint64{10, 50, 90})
	leaf.high, leaf.hasHigh, leaf.right = 12, true, 7
	f.Add(encodePage(leaf))
	internal := newNode(3, 2)
	internal.set([]int64{100}, []uint64{4, 5})
	f.Add(encodePage(internal))
	f.Add([]byte{})
	f.Add(make([]byte, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := newNode(0, MaxCap)
		if err := n.decode(data); err != nil {
			return
		}
		// A successfully decoded node must re-encode without panicking,
		// and the round trip must be stable.
		n2 := newNode(0, MaxCap)
		if err := n2.decode(encodePage(n)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2.level != n.level || n2.n != n.n {
			t.Fatalf("round trip changed shape")
		}
	})
}

// FuzzEncodeDecodeRoundTrip drives structured nodes through the codec.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(3), int64(42), uint64(7), true)
	f.Add(uint8(2), uint8(10), int64(-1), uint64(0), false)
	f.Fuzz(func(t *testing.T, levelRaw, nRaw uint8, keyBase int64, valBase uint64, hasHigh bool) {
		level := int(levelRaw%8) + 1
		nkeys := int(nRaw % 64)
		var keys []int64
		var ptrs []uint64
		for i := 0; i < nkeys; i++ {
			keys = append(keys, keyBase+int64(i))
			ptrs = append(ptrs, valBase+uint64(i))
		}
		if level > 1 {
			ptrs = append(ptrs, valBase+uint64(nkeys))
		}
		n := newNode(level, 64)
		n.set(keys, ptrs)
		n.hasHigh, n.high, n.right = hasHigh, keyBase+1000, 3
		// Decode into a node that last held something else: nothing of it
		// may survive.
		out := newNode(7, 64)
		out.n, out.hasHigh, out.high = 64, !hasHigh, 1
		if err := out.decode(encodePage(n)); err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if out.level != n.level || out.hasHigh != n.hasHigh || out.right != n.right || out.high != n.high {
			t.Fatal("header mismatch")
		}
		if len(out.keys()) != len(keys) || len(out.ptrs()) != len(ptrs) {
			t.Fatal("item count mismatch")
		}
		for i := range keys {
			if out.keys()[i] != keys[i] {
				t.Fatal("key mismatch")
			}
		}
		for i := range ptrs {
			if out.ptrs()[i] != ptrs[i] {
				t.Fatal("pointer mismatch")
			}
		}
	})
}
