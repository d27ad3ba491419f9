package diskbtree

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFindsRouterOutsideItsRange gives an inner page below the root
// one router more, at its own high key, and behind it an empty leaf page
// with that high key which no right link reaches. Every child's routed
// range still ends at its high key and the leaf chain is untouched, so
// only the check that a router lies inside its node's routed range sees
// it.
func TestCheckFindsRouterOutsideItsRange(t *testing.T) {
	tr, err := Open(filepath.Join(t.TempDir(), "t.db"), Options{Cap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for k := int64(0); tr.Height() < 3; k++ {
		if _, err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root, err := tr.rLatch(tr.rootID())
	if err != nil {
		t.Fatal(err)
	}
	id := root.child(0)
	tr.rUnlatch(root)
	n, err := tr.wLatch(id)
	if err != nil {
		t.Fatal(err)
	}
	if !n.hasHigh || n.items() == tr.cap {
		tr.wUnlatch(n, false)
		t.Fatalf("test setup: leftmost level-2 page has %d children, high key %v", n.items(), n.hasHigh)
	}
	last, err := tr.rLatch(n.child(n.items() - 1))
	if err != nil {
		t.Fatal(err)
	}
	next := last.right
	tr.rUnlatch(last)
	e, err := tr.cache.create(1)
	if err != nil {
		t.Fatal(err)
	}
	e.high, e.hasHigh, e.right = n.high, true, next
	eid := e.id
	tr.wUnlatch(e, true)
	n.insert(n.items()-1, n.high, n.items(), uint64(eid))
	tr.wUnlatch(n, true)

	err = tr.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "routed range") {
		t.Fatalf("CheckInvariants = %v, want a router outside its routed range", err)
	}
}
