package fdtree

import "repro/internal/bitset"

// addMinimalFD inserts lhs → rhs while maintaining minimality: RHS
// attributes already covered by a generalization in the tree are dropped,
// and specializations of the inserted FDs are removed. It returns the
// number of FDs actually inserted. It assumes nothing about the tree or
// the caller, so, driven by refInduct, it is the reference
// TestInductMatchesReference holds Induct's insertSpecialization to.
func (t *Tree) addMinimalFD(lhs, rhs bitset.Set) int {
	cand := t.scratchSet(&t.candBuf)
	copy(cand, rhs)
	cand.DifferenceWith(lhs) // non-trivial only
	if cand.IsEmpty() {
		return 0
	}
	covered := t.scratchSet(&t.covBuf)
	covered.Clear()
	t.coveredRHSInto(lhs, cand, covered)
	cand.DifferenceWith(covered)
	if cand.IsEmpty() {
		return 0
	}
	t.removeSpecializations(lhs, cand)
	node := t.addPath(lhs)
	if node.RHS == nil {
		node.RHS = t.newRHS()
	}
	before := node.RHS.Count()
	node.RHS.UnionWith(cand)
	added := node.RHS.Count() - before
	t.bump(node, added, node.RHS)
	return added
}

// removeSpecializations deletes every FD W → B with lhs ⊆ W and B ∈ rhs
// from the tree (the FD at W = lhs itself included; addMinimalFD inserts
// the new FD afterwards, so clearing an equal node first is harmless).
func (t *Tree) removeSpecializations(lhs, rhs bitset.Set) {
	t.attrsBuf = lhs.AppendAttrs(t.attrsBuf[:0])
	t.removeSpecRec(t.root, t.attrsBuf, rhs)
}

// removeSpecRec and clearSubtree only enter children whose summary
// intersects rhs: no other subtree holds an FD they would clear.
func (t *Tree) removeSpecRec(cur *Node, remaining []int, rhs bitset.Set) {
	if len(remaining) == 0 {
		// Every lhs attribute matched: clear rhs bits in this whole subtree.
		t.clearSubtree(cur, rhs)
		return
	}
	m := remaining[0]
	for _, c := range cur.children {
		if c.Attr > m {
			break // m can no longer occur below later children
		}
		if c.subtree == 0 || !c.below.Intersects(rhs) {
			continue
		}
		if c.Attr == m {
			t.removeSpecRec(c, remaining[1:], rhs)
		} else {
			t.removeSpecRec(c, remaining, rhs)
		}
	}
}

func (t *Tree) clearSubtree(cur *Node, rhs bitset.Set) {
	if cur.RHS != nil && cur.RHS.Intersects(rhs) {
		before := cur.RHS.Count()
		cur.RHS.DifferenceWith(rhs)
		t.bump(cur, cur.RHS.Count()-before, nil)
	}
	for _, c := range cur.children {
		if c.subtree > 0 && c.below.Intersects(rhs) {
			t.clearSubtree(c, rhs)
		}
	}
	resummarize(cur)
}

// refInduct is Induct with every candidate inserted through addMinimalFD.
func (t *Tree) refInduct(x, y bitset.Set) int {
	removedTotal := 0
	path := t.scratchSet(&t.pathBuf)
	path.Clear()
	t.refInductRec(t.root, 0, x, y, path, &removedTotal)
	return removedTotal
}

// refInductRec is inductRec calling refSpecialize.
func (t *Tree) refInductRec(cur *Node, next int, x, y, path bitset.Set, removedTotal *int) {
	if cur.RHS != nil && cur.RHS.Intersects(y) {
		removed := cur.RHS.Intersect(y)
		n := removed.Count()
		cur.RHS.DifferenceWith(y)
		t.bump(cur, -n, nil)
		*removedTotal += n
		t.refSpecialize(path, x, removed)
	}
	for a := x.Next(next); a >= 0; a = x.Next(a + 1) {
		if len(cur.children) == 0 || a > cur.children[len(cur.children)-1].Attr {
			break
		}
		if c := cur.child(a); c != nil && c.subtree > 0 && c.below.Intersects(y) {
			path.Add(a)
			t.refInductRec(c, a+1, x, y, path, removedTotal)
			path.Remove(a)
		}
	}
	resummarize(cur)
}

// refSpecialize is specialize inserting through addMinimalFD.
func (t *Tree) refSpecialize(path, x, removed bitset.Set) {
	outside := t.scratchSet(&t.outsideBuf)
	copy(outside, t.full)
	outside.DifferenceWith(x)
	outside.DifferenceWith(removed)
	lhs := t.scratchSet(&t.lhsBuf)
	copy(lhs, path)
	for a := outside.Next(0); a >= 0; a = outside.Next(a + 1) {
		if path.Contains(a) {
			continue
		}
		lhs.Add(a)
		t.addMinimalFD(lhs, removed)
		lhs.Remove(a)
	}
	if removed.Count() > 1 {
		rest := t.scratchSet(&t.restBuf)
		for a := removed.Next(0); a >= 0; a = removed.Next(a + 1) {
			lhs.Add(a)
			copy(rest, removed)
			rest.Remove(a)
			t.addMinimalFD(lhs, rest)
			lhs.Remove(a)
		}
	}
}
