package blink

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// tree is a synthetic B-link tree of capacity 4 over int ids (0 is no
// node), holding 10 keys on three levels:
//
//	level 3:          1:[20]
//	level 2:   10:[10] ──── 11:[40]
//	level 1: 2:[1 2 3] ── 3:[10 12] ── 4:[20 25 30] ── 5:[40 41]
func tree() map[int]Node[int] {
	return map[int]Node[int]{
		1:  {Level: 3, Keys: []int64{20}, Children: []int{10, 11}},
		10: {Level: 2, Keys: []int64{10}, Children: []int{2, 3}, High: 20, HasHigh: true, Right: 11},
		11: {Level: 2, Keys: []int64{40}, Children: []int{4, 5}},
		2:  {Level: 1, Keys: []int64{1, 2, 3}, High: 10, HasHigh: true, Right: 3},
		3:  {Level: 1, Keys: []int64{10, 12}, High: 20, HasHigh: true, Right: 4},
		4:  {Level: 1, Keys: []int64{20, 25, 30}, High: 40, HasHigh: true, Right: 5},
		5:  {Level: 1, Keys: []int64{40, 41}},
	}
}

func check(nodes map[int]Node[int], size int) error {
	return Check(1, 4, size, func(id int) (Node[int], error) {
		n, ok := nodes[id]
		if !ok {
			return Node[int]{}, errors.New("no such node")
		}
		return n, nil
	})
}

func TestCheckAcceptsTree(t *testing.T) {
	if err := check(tree(), 10); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReadOrder pins the order Check reads nodes in, which a tree's
// read hook may rely on: once each, parents first, each level left to
// right.
func TestCheckReadOrder(t *testing.T) {
	nodes, got := tree(), []int(nil)
	err := Check(1, 4, 10, func(id int) (Node[int], error) {
		got = append(got, id)
		return nodes[id], nil
	})
	if want := []int{1, 10, 2, 3, 11, 4, 5}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("read %v (%v), want %v", got, err, want)
	}
}

// TestCheckFindsEachInvariant seeds one broken invariant per case into
// the synthetic tree; Check must fail with a message that names it.
func TestCheckFindsEachInvariant(t *testing.T) {
	for _, c := range []struct {
		name, want string
		size       int
		mutate     func(m map[int]Node[int])
	}{
		{"leaf over capacity", "capacity:", 12, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Keys = []int64{1, 2, 3, 4, 5} })
		}},
		{"leaf keys out of order", "key order:", 10, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Keys = []int64{1, 3, 2} })
		}},
		{"duplicate router", "key order:", 10, func(m map[int]Node[int]) {
			set(m, 11, func(n *Node[int]) { n.Keys, n.Children = []int64{40, 40}, []int{4, 5, 5} })
		}},
		{"inner node with a child too few", "shape:", 10, func(m map[int]Node[int]) {
			set(m, 10, func(n *Node[int]) { n.Children = []int{2} })
		}},
		{"inner node without children", "shape:", 10, func(m map[int]Node[int]) {
			set(m, 10, func(n *Node[int]) { n.Keys, n.Children = nil, nil })
		}},
		{"child two levels down", "shape:", 10, func(m map[int]Node[int]) {
			set(m, 1, func(n *Node[int]) { n.Children = []int{2, 11} })
		}},
		{"root below level 1", "shape:", 10, func(m map[int]Node[int]) {
			set(m, 1, func(n *Node[int]) { n.Level = 0 })
		}},
		{"leaf key at its high bound", "routed range:", 10, func(m map[int]Node[int]) {
			set(m, 3, func(n *Node[int]) { n.Keys = []int64{10, 20} })
		}},
		{"leaf key below its low bound", "routed range:", 10, func(m map[int]Node[int]) {
			set(m, 4, func(n *Node[int]) { n.Keys = []int64{19, 25, 30} })
		}},
		{"router outside the routed range", "routed range:", 10, func(m map[int]Node[int]) {
			set(m, 10, func(n *Node[int]) { n.Keys = []int64{25} })
		}},
		{"high key off the routed bound", "high key:", 10, func(m map[int]Node[int]) {
			set(m, 3, func(n *Node[int]) { n.High = 19 })
		}},
		{"interior node without a high key", "high key:", 10, func(m map[int]Node[int]) {
			set(m, 10, func(n *Node[int]) { n.HasHigh = false })
		}},
		{"rightmost node with a high key", "high key:", 10, func(m map[int]Node[int]) {
			set(m, 5, func(n *Node[int]) { n.High, n.HasHigh = 50, true })
		}},
		{"chain high keys not ascending", "level chain: level 1 high keys not ascending", 10, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Right = 4 })
			set(m, 4, func(n *Node[int]) { n.Right = 3 })
			set(m, 3, func(n *Node[int]) { n.Right = 5 })
		}},
		{"chain node without a high key before the end", "level chain: level 1 node 1 from the left has a right sibling but no high key", 10, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Right = 5 })
			set(m, 5, func(n *Node[int]) { n.Right = 3 })
		}},
		{"chain skips a node", "level chain: level 1 links 3 nodes, its parents route to 4", 10, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Right = 4 })
		}},
		{"chain links a node no parent routes to", "level chain: level 1 links to a node no parent routes to", 10, func(m map[int]Node[int]) {
			m[99] = Node[int]{Level: 1, High: 15, HasHigh: true, Right: 3}
			set(m, 2, func(n *Node[int]) { n.Right = 99 })
		}},
		{"chain links another level", "level chain: level 1 links to a level-2 node", 10, func(m map[int]Node[int]) {
			set(m, 2, func(n *Node[int]) { n.Right = 10 })
		}},
		{"chain ends early", "level chain: the last node of level 2 has high key 20", 10, func(m map[int]Node[int]) {
			set(m, 10, func(n *Node[int]) { n.Right = 0 })
		}},
		{"size off the leaves", "size:", 11, func(map[int]Node[int]) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := tree()
			c.mutate(m)
			err := check(m, c.size)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("Check = %v, want an error starting %q", err, c.want)
			}
		})
	}
}

// TestCheckPassesReadErrors: a tree's hook reports its own invariants
// through read's error, which Check returns as it is.
func TestCheckPassesReadErrors(t *testing.T) {
	nodes, own := tree(), errors.New("a tree's own invariant")
	err := Check(1, 4, 10, func(id int) (Node[int], error) {
		if id == 4 {
			return Node[int]{}, own
		}
		return nodes[id], nil
	})
	if err != own {
		t.Fatalf("Check = %v, want the hook's error", err)
	}
}

// set applies f to a copy of node id and stores it back.
func set(m map[int]Node[int], id int, f func(*Node[int])) {
	n := m[id]
	f(&n)
	m[id] = n
}

// TestSearchMatchesSortSearch checks LowerBound, Route, Find and Run
// against sort.Search on ascending key sets of every size from empty to
// well past ScanRun, so both the forward scan and the halving before it
// run: keys with gaps, runs of repeated keys (a gapped OLC leaf holds
// copies) and the int64 extremes, probed at, between and beyond them.
func TestSearchMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for size := 0; size <= 300; size++ {
		keys := make([]int64, size)
		next := int64(rng.Intn(8)) - 4
		for i := range keys {
			next += int64(rng.Intn(6)) // gaps of 0..5: a 0 repeats a key
			keys[i] = next
		}
		if size > 2 && size%3 == 0 {
			keys[0], keys[size-1] = math.MinInt64, math.MaxInt64
		}
		probes := []int64{math.MinInt64, math.MaxInt64, -100, 0, next + 1}
		for _, k := range keys {
			probes = append(probes, k, k-1, k+1) // wraps at the extremes, also a probe
		}
		checkSearch(t, keys, probes)
	}
}

// FuzzSearch is TestSearchMatchesSortSearch over fuzzed keys: each byte
// of steps is the gap to the next key from base, 0 a repeat, and a and
// b are the probes and, in order, a scan's bounds.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 0, 7}, int64(0), int64(4), int64(9))
	f.Add(make([]byte, 200), int64(math.MaxInt64-100), int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, steps []byte, base, a, b int64) {
		keys := make([]int64, 0, len(steps))
		for _, d := range steps {
			if base > math.MaxInt64-int64(d) {
				break
			}
			base += int64(d)
			keys = append(keys, base)
		}
		checkSearch(t, keys, []int64{a, b})
	})
}

// checkSearch checks each search of ascending keys at every probe, and
// Run from every probe to every hi in a sample of about 16 of them,
// against sort.Search.
func checkSearch(t *testing.T, keys []int64, probes []int64) {
	t.Helper()
	atLeast := func(k int64) int { return sort.Search(len(keys), func(i int) bool { return keys[i] >= k }) }
	above := func(k int64) int { return sort.Search(len(keys), func(i int) bool { return keys[i] > k }) }
	for _, k := range probes {
		want := atLeast(k)
		if got := LowerBound(keys, k); got != want {
			t.Fatalf("LowerBound(%v, %d) = %d, want %d", keys, k, got, want)
		}
		if got, want := Route(keys, k), above(k); got != want {
			t.Fatalf("Route(%v, %d) = %d, want %d", keys, k, got, want)
		}
		present := want < len(keys) && keys[want] == k
		if i, ok := Find(keys, k); i != want || ok != present {
			t.Fatalf("Find(%v, %d) = %d, %v; want %d, %v", keys, k, i, ok, want, present)
		}
	}
	his := probes[:0:0]
	for x := 0; x < len(probes); x += max(len(probes)/16, 1) {
		his = append(his, probes[x])
	}
	for _, lo := range probes {
		for _, hi := range his {
			if hi < lo {
				continue
			}
			if i, j := Run(keys, lo, hi); i != atLeast(lo) || j != above(hi) {
				t.Fatalf("Run(%v, %d, %d) = [%d, %d), want [%d, %d)", keys, lo, hi, i, j, atLeast(lo), above(hi))
			}
		}
	}
}

func TestBulkFill(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []int64
		vals []uint64
		fill float64
		want int // items per node; 0 means an error
	}{
		{"fill 0.5 of 100", []int64{1, 2}, []uint64{1, 2}, 0.5, 50},
		{"at least 2 a node", []int64{1}, []uint64{1}, 0.01, 2},
		{"empty input", nil, nil, 1, 100},
		{"length mismatch", []int64{1, 2}, []uint64{1}, 0.9, 0},
		{"unsorted", []int64{2, 1}, []uint64{1, 2}, 0.9, 0},
		{"duplicate", []int64{1, 1}, []uint64{1, 2}, 0.9, 0},
		{"zero fill", []int64{1}, []uint64{1}, 0, 0},
		{"fill above 1", []int64{1}, []uint64{1}, 1.5, 0},
	} {
		per, err := BulkFill(100, c.keys, c.vals, c.fill)
		if (err == nil) != (c.want > 0) || per != c.want {
			t.Errorf("%s: BulkFill = %d, %v; want %d", c.name, per, err, c.want)
		}
	}
}
