package cbtree

import (
	"math/rand"
	"testing"
)

// TestSearchPathEquivalence runs an identical randomized workload through
// a capacity-8 tree (every node below blink's linear-scan bound, so
// always the linear path) and a capacity-64 tree (nodes mostly at or
// above it, so mostly the binary path) and checks that every operation's
// result agrees — an end-to-end check that the two search paths route
// identically.
func TestSearchPathEquivalence(t *testing.T) {
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType, OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			small := New(8, alg)
			large := New(64, alg)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				key := int64(rng.Intn(3000))
				switch rng.Intn(4) {
				case 0, 1:
					v1, ok1 := small.Search(key)
					v2, ok2 := large.Search(key)
					if v1 != v2 || ok1 != ok2 {
						t.Fatalf("op %d: Search(%d) = (%d,%v) vs (%d,%v)", i, key, v1, ok1, v2, ok2)
					}
				case 2:
					val := rng.Uint64()
					if r1, r2 := small.Insert(key, val), large.Insert(key, val); r1 != r2 {
						t.Fatalf("op %d: Insert(%d) = %v vs %v", i, key, r1, r2)
					}
				default:
					if r1, r2 := small.Delete(key), large.Delete(key); r1 != r2 {
						t.Fatalf("op %d: Delete(%d) = %v vs %v", i, key, r1, r2)
					}
				}
			}
			if small.Len() != large.Len() {
				t.Fatalf("final Len: %d vs %d", small.Len(), large.Len())
			}
		})
	}
}
