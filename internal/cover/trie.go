package cover

import (
	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/fdtree"
)

// trieImplier answers implication queries over a mutable FD set by walking
// an FD-tree: a closure fixpoint only visits FDs whose LHS lies inside the
// current closure (paths of the trie restricted to closure attributes),
// instead of touching every FD the way counter-based LINCLOSURE does.
// On the large left-reduced covers of Table III — hundreds of thousands of
// FDs whose closures stay small — this is orders of magnitude faster.
type trieImplier struct {
	tree     *fdtree.Tree
	numAttrs int
	emptyRHS bitset.Set // RHS attributes of empty-LHS FDs (root node RHS)
}

func newTrieImplier(numAttrs int, fds []dep.FD) *trieImplier {
	t := &trieImplier{tree: fdtree.New(numAttrs), numAttrs: numAttrs}
	for _, f := range fds {
		t.tree.AddFD(f.LHS, f.RHS)
	}
	if rhs := t.tree.Root().RHS; rhs != nil {
		t.emptyRHS = rhs
	} else {
		t.emptyRHS = bitset.New(numAttrs)
	}
	return t
}

// reaches reports whether the FD set implies x → {target}.
func (t *trieImplier) reaches(x bitset.Set, target int) bool {
	if x.Contains(target) || t.emptyRHS.Contains(target) {
		return true
	}
	closure := x.Union(t.emptyRHS)
	for {
		grew, hit := t.collect(t.tree.Root(), closure, target)
		if hit {
			return true
		}
		if !grew {
			return false
		}
	}
}

// collect walks every path contained in closure, unioning FD-node RHSs
// into closure. Reports whether closure grew and whether target was hit.
// It skips a child whose RHS attributes all lie in closure already: that
// subtree could neither grow the closure nor reach target, which is
// outside the closure until hit.
func (t *trieImplier) collect(n *fdtree.Node, closure bitset.Set, target int) (grew, hit bool) {
	if n.RHS != nil && !n.RHS.IsSubsetOf(closure) {
		closure.UnionWith(n.RHS)
		grew = true
		if closure.Contains(target) {
			return grew, true
		}
	}
	for _, c := range n.Children() {
		if !closure.Contains(c.Attr) || c.RHSBelowWithin(closure) {
			continue
		}
		g, h := t.collect(c, closure, target)
		grew = grew || g
		if h {
			return grew, true
		}
	}
	return grew, false
}

// exactNode returns the FD-node at exactly path lhs, or nil.
func (t *trieImplier) exactNode(lhs bitset.Set) *fdtree.Node {
	cur := t.tree.Root()
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		cur = cur.Child(a)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// remove clears target from the FD-node at lhs; restore re-adds it.
// The root's RHS set is aliased by emptyRHS, so empty-LHS FDs stay in sync.
func (t *trieImplier) remove(lhs bitset.Set, target int) {
	t.tree.RemoveRHS(t.exactNode(lhs), target)
}

func (t *trieImplier) restore(lhs bitset.Set, target int) {
	t.tree.AddRHS(t.exactNode(lhs), target)
}
