package cbtree

import (
	"slices"
	"strings"
	"testing"
)

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
	n := tr.root.Load().children[0]
	if n.right.Load() == nil || n.items() == tr.cap {
		t.Fatalf("test setup: leftmost level-2 node has %d children, right %p", n.items(), n.right.Load())
	}
	hi := n.high.Load()
	e := tr.newNode(1)
	e.high.Store(hi)
	e.right.Store(n.children[len(n.children)-1].right.Load())
	n.setRouting(append(slices.Clone(n.keys), hi), append(slices.Clone(n.children), e))

	err := tr.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "routed range") {
		t.Fatalf("CheckInvariants = %v, want the router %d outside its routed range", err, hi)
	}
}
