package storage

import (
	"slices"
	"sync"

	"repro/internal/types"
)

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTree is a B+tree index from key values to RIDs, with duplicates. The
// tree structure lives in memory, but probes charge simulated I/O to the
// caller's meter under the standard assumption that internal nodes stay
// cached while each distinct leaf visit costs one page read. A Lookup
// therefore charges one read plus the heap fetches the caller performs —
// the same cost model the optimizer uses for index scans and indexed
// nested-loops joins.
//
// The tree is safe for concurrent use: DML inserts and vacuum's deletes
// take the write lock, probes and range scans the read lock. Every
// version a transaction writes gets an entry; vacuum deletes the entry
// of each version it sweeps, and an aborted transaction those of the
// versions it inserted. Leaves are never merged. An entry that outlives
// its version is harmless: the heap never reuses a slot number, so the
// fetch finds the slot deleted and skips it.
type BTree struct {
	meter  *CostMeter
	mu     sync.RWMutex
	root   node
	height int
	keys   int64
}

type node interface {
	insert(k types.Value, rid RID) (node, types.Value, node)
}

type leafNode struct {
	keys []types.Value
	vals [][]RID
	next *leafNode
}

type innerNode struct {
	keys     []types.Value // separator keys; len(children) == len(keys)+1
	children []node
}

// NewBTree returns an empty index charging its build I/O, and the probes
// of callers that pass no meter, to meter.
func NewBTree(meter *CostMeter) *BTree {
	return &BTree{meter: meter, root: &leafNode{}, height: 1}
}

// Len returns the number of (key, rid) entries.
func (t *BTree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys
}

// Insert adds an entry. Building an index is charged one write per
// btreeOrder entries, approximating bulk-load I/O.
func (t *BTree) Insert(k types.Value, rid RID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys++
	if t.keys%btreeOrder == 0 {
		t.meter.ChargeWrite(1)
	}
	left, sep, right := t.root.insert(k, rid)
	if right != nil {
		t.root = &innerNode{keys: []types.Value{sep}, children: []node{left, right}}
		t.height++
	}
}

func (l *leafNode) insert(k types.Value, rid RID) (node, types.Value, node) {
	i := l.search(k)
	if i < len(l.keys) && l.keys[i].Equal(k) {
		l.vals[i] = append(l.vals[i], rid)
		return l, types.Value{}, nil
	}
	l.keys = append(l.keys, types.Value{})
	l.vals = append(l.vals, nil)
	copy(l.keys[i+1:], l.keys[i:])
	copy(l.vals[i+1:], l.vals[i:])
	l.keys[i] = k
	l.vals[i] = []RID{rid}
	if len(l.keys) <= btreeOrder {
		return l, types.Value{}, nil
	}
	mid := len(l.keys) / 2
	right := &leafNode{
		keys: append([]types.Value(nil), l.keys[mid:]...),
		vals: append([][]RID(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	l.next = right
	return l, right.keys[0], right
}

// search returns the first index i with keys[i] >= k.
func (l *leafNode) search(k types.Value) int {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.keys[mid].Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *innerNode) insert(k types.Value, rid RID) (node, types.Value, node) {
	i := n.search(k)
	_, sep, right := n.children[i].insert(k, rid)
	if right == nil {
		return n, types.Value{}, nil
	}
	n.keys = append(n.keys, types.Value{})
	n.children = append(n.children, nil)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.children[i+2:], n.children[i+1:])
	n.keys[i] = sep
	n.children[i+1] = right
	if len(n.keys) <= btreeOrder {
		return n, types.Value{}, nil
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	rightNode := &innerNode{
		keys:     append([]types.Value(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return n, sepUp, rightNode
}

// search returns the child index to descend into for key k.
func (n *innerNode) search(k types.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Compare(k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeaf descends to the leaf that would contain k.
func (t *BTree) findLeaf(k types.Value) *leafNode {
	cur := t.root
	for {
		switch n := cur.(type) {
		case *leafNode:
			return n
		case *innerNode:
			cur = n.children[n.search(k)]
		}
	}
}

// Lookup appends the RIDs for an exact key to dst and returns it,
// charging one leaf read to meter (the tree's own when nil). Nothing of
// the tree is retained, so the caller may hold the RIDs across
// concurrent inserts and reuse dst from probe to probe.
func (t *BTree) Lookup(k types.Value, meter *CostMeter, dst []RID) []RID {
	t.charge(meter)
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.findLeaf(k)
	i := l.search(k)
	if i < len(l.keys) && l.keys[i].Equal(k) {
		return append(dst, l.vals[i]...)
	}
	return dst
}

// Range calls fn for each entry with lo <= key <= hi in key order,
// charging one read per leaf visited to meter (the tree's own when nil).
// A NULL lo or hi bound means unbounded on that side. fn runs under the
// tree's read lock and must not call back into the tree; returning false
// stops the scan.
func (t *BTree) Range(lo, hi types.Value, meter *CostMeter, fn func(k types.Value, rids []RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var l *leafNode
	if lo.IsNull() {
		l = t.leftmostLeaf()
	} else {
		l = t.findLeaf(lo)
	}
	for l != nil {
		t.charge(meter)
		for i := range l.keys {
			if !lo.IsNull() && l.keys[i].Compare(lo) < 0 {
				continue
			}
			if !hi.IsNull() && l.keys[i].Compare(hi) > 0 {
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.next
	}
}

func (t *BTree) charge(meter *CostMeter) {
	if meter == nil {
		meter = t.meter
	}
	meter.ChargeRead(1)
}

// Delete removes the entry (k, rid) and reports whether it was present.
// A key left with no RIDs leaves its leaf; the leaf stays in the tree
// even when empty, and the separators above it still route correctly.
func (t *BTree) Delete(k types.Value, rid RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.findLeaf(k)
	i := l.search(k)
	if i == len(l.keys) || !l.keys[i].Equal(k) {
		return false
	}
	j := slices.Index(l.vals[i], rid)
	if j < 0 {
		return false
	}
	l.vals[i] = slices.Delete(l.vals[i], j, j+1)
	if len(l.vals[i]) == 0 {
		l.keys = slices.Delete(l.keys, i, i+1)
		l.vals = slices.Delete(l.vals, i, i+1)
	}
	t.keys--
	return true
}

func (t *BTree) leftmostLeaf() *leafNode {
	cur := t.root
	for {
		switch n := cur.(type) {
		case *leafNode:
			return n
		case *innerNode:
			cur = n.children[0]
		}
	}
}

// Height returns the tree height (for tests).
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}
