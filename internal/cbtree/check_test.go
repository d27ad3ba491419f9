package cbtree

import (
	"strings"
	"testing"
)

// lastChild returns a quiescent inner node's last child.
func lastChild(n *node) *node { return n.kids()[n.items()-1].Load() }

// TestCheckFindsRouterOutsideItsRange gives an inner node below the root
// one router more, at its own high key, and behind it an empty leaf with
// that high key which no right link reaches. Every child's routed range
// still ends at its high key and the leaf chain is untouched, so only
// the check that a router lies inside its node's routed range sees it.
func TestCheckFindsRouterOutsideItsRange(t *testing.T) {
	tr := New(4, LinkType)
	for k := int64(0); tr.Height() < 3; k++ {
		tr.Insert(k, uint64(k))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := tr.root.Load().kids()[0].Load()
	if n.right.Load() == nil || n.items() == tr.cap {
		t.Fatalf("test setup: leftmost level-2 node has %d children, right %p", n.items(), n.right.Load())
	}
	hi := n.high.Load()
	e := tr.newNode(1)
	e.high.Store(hi)
	e.right.Store(lastChild(n).right.Load())
	n.putEntry(n.items(), hi, e)

	err := tr.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "routed range") {
		t.Fatalf("CheckInvariants = %v, want the router %d outside its routed range", err, hi)
	}
}

// TestCheckLayoutHoldsInnerNodes seeds one fault at a time into the root
// of a quiescent three-level tree and requires CheckInvariants to name
// it: a child pointer left in the slot just past the count (the GC would
// keep that node alive), two keys out of order, and a version left odd.
func TestCheckLayoutHoldsInnerNodes(t *testing.T) {
	for _, c := range []struct {
		name, want string
		seed       func(n *node)
	}{
		{"pointer past the count", "past its", func(n *node) { n.kids()[n.items()].Store(n.kids()[0].Load()) }},
		{"keys out of order", "not strictly ascending", func(n *node) {
			keys := n.keys()
			keys[0], keys[1] = keys[1], keys[0]
		}},
		{"odd version", "odd while quiescent", func(n *node) { n.mu.LockV() }},
	} {
		tr := New(4, OLC)
		for k := int64(0); tr.Height() < 3; k++ {
			tr.Insert(k, uint64(k))
		}
		n := tr.root.Load()
		if n.items() == tr.cap {
			t.Fatalf("%s: test setup: the root is full", c.name)
		}
		c.seed(n)
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want %q", c.name, err, c.want)
		}
	}
}
