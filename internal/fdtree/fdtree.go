// Package fdtree implements the FD-tree data structures FD discovery is
// built on: the classic FD-tree of Flach and Savnik, and the paper's
// extended FD-tree with FD-nodes, node ids and synergized induction.
//
// An FD-tree represents a set of FDs: the LHS of an FD is a root-to-node
// path of ascending attributes, and the terminal node carries the RHS
// attributes. The extended tree stores RHS attributes only at FD-nodes
// (the paper's Section IV-C), avoiding the classic tree's excessive
// labelling of every ancestor.
//
// The trees maintain the minimality invariant discovery needs: no FD in the
// tree has a generalization (same RHS attribute, subset LHS) elsewhere in
// the tree. Synergized induction (Algorithm 2) preserves the invariant by
// filtering candidate RHSs against the generalizations that contain the
// candidate's added attribute, the only ones that can cover it; a minimal
// tree holds no specialization of a candidate, so none is deleted.
package fdtree

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// Node is a node of an extended FD-tree. Exported fields are read by the
// discovery algorithms; mutation goes through Tree methods.
type Node struct {
	// Attr is the attribute this node represents, -1 for the root.
	Attr int
	// ID indexes a stripped partition: values in [0, numAttrs) denote the
	// pre-computed single-attribute partition of that attribute; values
	// >= numAttrs denote slot ID-numAttrs of the dynamic data manager.
	ID int
	// Epoch is the DDM generation ID refers to. The DDM replaces its
	// partition array whenever the controlled level advances (Algorithm 3);
	// ids minted for an older array are stale — the situation Example 4 of
	// the paper calls an inconsistent id — and are ignored at lookup time.
	Epoch int
	// RHS holds the FD's right-hand side when the node is an FD-node;
	// empty or nil otherwise.
	RHS bitset.Set
	// Pruned marks a node a fused top-k run abandoned: no FD at or below
	// it can still enter the heap, so validation skips it. Only the
	// heap's admissions are reported, never the tree, so pruned nodes
	// merely save work.
	Pruned bool

	parent   *Node
	children []*Node // sorted ascending by Attr
	subtree  int     // number of (FD-node, RHS-attribute) pairs at or below
	// below is a superset of the RHS attributes of the FD-nodes at or
	// below this node: inserts grow it on their way to the root, and the
	// walks that clear RHS bits recompute it for the nodes they visit.
	below bitset.Set
}

// Parent returns the node's parent, nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children in ascending attribute order. The
// slice is owned by the node; callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// Child returns the child representing attr, or nil.
func (n *Node) Child(attr int) *Node { return n.child(attr) }

// IsFDNode reports whether the node carries at least one RHS attribute.
func (n *Node) IsFDNode() bool { return n.RHS != nil && !n.RHS.IsEmpty() }

// RHSCount returns the number of RHS attributes at this node.
func (n *Node) RHSCount() int {
	if n.RHS == nil {
		return 0
	}
	return n.RHS.Count()
}

// SubtreeFDs returns the number of FDs at or below this node.
func (n *Node) SubtreeFDs() int { return n.subtree }

// HasLiveChildren reports whether any child subtree still contains FDs.
// A validated node with live children is "reusable" in the paper's sense:
// its stripped partition can seed the partitions of deeper levels.
func (n *Node) HasLiveChildren() bool {
	for _, c := range n.children {
		if c.subtree > 0 {
			return true
		}
	}
	return false
}

// Path returns the attribute set of the root-to-node path.
func (n *Node) Path(numAttrs int) bitset.Set {
	s := bitset.New(numAttrs)
	for cur := n; cur != nil && cur.Attr >= 0; cur = cur.parent {
		s.Add(cur.Attr)
	}
	return s
}

// Depth returns the node's depth; the root has depth 0.
func (n *Node) Depth() int {
	d := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		d++
	}
	return d
}

func (n *Node) child(attr int) *Node {
	// Fan-out is usually tiny; a linear scan beats sort.Search's function
	// call overhead on the hot induction paths.
	if len(n.children) <= 8 {
		for _, c := range n.children {
			if c.Attr == attr {
				return c
			}
			if c.Attr > attr {
				return nil
			}
		}
		return nil
	}
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].Attr >= attr })
	if i < len(n.children) && n.children[i].Attr == attr {
		return n.children[i]
	}
	return nil
}

func (n *Node) insertChild(c *Node) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].Attr >= c.Attr })
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// Tree is an extended FD-tree over a schema of numAttrs attributes.
type Tree struct {
	root     *Node
	numAttrs int
	words    int
	full     bitset.Set

	// ControlledLevel is the paper's cl: new nodes at depth > cl inherit
	// their parent's id, new nodes at depth <= cl get the default id of
	// their own attribute. FDEP-style uses of the tree leave it at 0.
	ControlledLevel int

	// Induction scratch. The tree is single-writer (induction is serial
	// in every algorithm), so these are reused across calls: attrsBuf by
	// CoveredRHS and insertSpecialization, the sets by insertSpecialization
	// and specialize.
	attrsBuf                             []int
	covBuf, candBuf                      bitset.Set
	outsideBuf, lhsBuf, restBuf, pathBuf bitset.Set
}

// scratchSet returns *buf sized to the schema, allocating it on first use.
func (t *Tree) scratchSet(buf *bitset.Set) bitset.Set {
	if *buf == nil {
		*buf = make(bitset.Set, t.words)
	}
	return *buf
}

// New returns an extended FD-tree containing no FDs.
func New(numAttrs int) *Tree {
	words := bitset.WordsFor(numAttrs)
	return &Tree{
		root:     &Node{Attr: -1, ID: -1, below: make(bitset.Set, words)},
		numAttrs: numAttrs,
		words:    words,
		full:     bitset.Full(numAttrs),
	}
}

// NewWithFullRHS returns a tree initialized with the single FD ∅ → R, the
// starting point of induction-based discovery.
func NewWithFullRHS(numAttrs int) *Tree {
	t := New(numAttrs)
	t.root.RHS = bitset.Full(numAttrs)
	t.bump(t.root, numAttrs, t.root.RHS)
	return t
}

// NumAttrs returns the schema width.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// CountFDs returns the total number of FDs in the tree, counting one per
// (FD-node, RHS attribute) pair.
func (t *Tree) CountFDs() int { return t.root.subtree }

func (t *Tree) newRHS() bitset.Set { return make(bitset.Set, t.words) }

// bump adjusts the subtree counters from n up to the root by delta and
// ORs rhs into every summary on the way; removals pass a nil rhs. The OR
// never stops early at a summary that already holds rhs: a recompute may
// have dropped a dead child's stale summary from its parent's, so an
// ancestor can lack a bit a descendant's summary still holds.
func (t *Tree) bump(n *Node, delta int, rhs bitset.Set) {
	if delta == 0 {
		return
	}
	for cur := n; cur != nil; cur = cur.parent {
		cur.subtree += delta
		cur.below.UnionWith(rhs)
	}
}

// resummarize recomputes n's summary from its own RHS and the summaries
// of its live children. Dead children hold no FDs, so their possibly
// stale summaries are left out.
func resummarize(n *Node) {
	n.below.Clear()
	if n.subtree == 0 {
		return
	}
	if n.RHS != nil {
		n.below.UnionWith(n.RHS)
	}
	for _, c := range n.children {
		if c.subtree > 0 {
			n.below.UnionWith(c.below)
		}
	}
}

// AddFD inserts lhs → rhs without any minimality filtering, creating the
// path as needed (Algorithm 1).
func (t *Tree) AddFD(lhs, rhs bitset.Set) *Node {
	node := t.addPath(lhs)
	if node.RHS == nil {
		node.RHS = t.newRHS()
	}
	before := node.RHS.Count()
	node.RHS.UnionWith(rhs)
	t.bump(node, node.RHS.Count()-before, node.RHS)
	return node
}

// addPath walks the path for lhs, creating missing nodes with the id rule
// of Algorithm 1, and returns the terminal node.
func (t *Tree) addPath(lhs bitset.Set) *Node {
	cur := t.root
	depth := 0
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		depth++
		next := cur.child(a)
		if next == nil {
			next = &Node{Attr: a, parent: cur, below: t.newRHS()}
			if depth > t.ControlledLevel && cur.ID >= t.numAttrs {
				// Inherit a dynamic id: the parent's partition attributes are
				// a subset of the parent path and hence of the child path.
				next.ID, next.Epoch = cur.ID, cur.Epoch
			} else {
				next.ID = a // default id: the node's own attribute
			}
			cur.insertChild(next)
		}
		cur = next
	}
	return cur
}

// removeRHS clears one RHS attribute at the given node, maintaining the
// subtree counters. No-op when the node is nil or lacks the attribute.
func (t *Tree) removeRHS(n *Node, a int) {
	if n == nil || n.RHS == nil || !n.RHS.Contains(a) {
		return
	}
	n.RHS.Remove(a)
	t.bump(n, -1, nil)
}

// addRHS sets one RHS attribute at the given node, maintaining the subtree
// counters. No-op when the node is nil or already has the attribute.
func (t *Tree) addRHS(n *Node, a int) {
	if n == nil {
		return
	}
	if n.RHS == nil {
		n.RHS = t.newRHS()
	}
	if n.RHS.Contains(a) {
		return
	}
	n.RHS.Add(a)
	t.bump(n, 1, n.RHS)
}

// CoveredRHS returns the subset of cand covered by some FD Z → B in the
// tree with Z ⊆ lhs (Z = lhs included).
func (t *Tree) CoveredRHS(lhs, cand bitset.Set) bitset.Set {
	acc := t.newRHS()
	t.coveredRHSInto(lhs, cand, acc)
	return acc
}

// coveredRHSInto accumulates the covered subset of cand into acc, reusing
// the tree's attribute scratch.
func (t *Tree) coveredRHSInto(lhs, cand, acc bitset.Set) {
	t.attrsBuf = lhs.AppendAttrs(t.attrsBuf[:0])
	t.coveredRec(t.root, t.attrsBuf, cand, acc)
}

// coveredRec visits the children of cur whose attribute is among the
// remaining lhs attributes, merging the two sorted lists in one pass. The
// walk is read-only, so ranging over cur.children is safe here.
func (t *Tree) coveredRec(cur *Node, lhsAttrs []int, cand, acc bitset.Set) bool {
	if cur.RHS != nil {
		acc.UnionIntersection(cur.RHS, cand)
		if cand.IsSubsetOf(acc) {
			return true // everything covered; stop early
		}
	}
	j := 0
	for _, c := range cur.children {
		for j < len(lhsAttrs) && lhsAttrs[j] < c.Attr {
			j++
		}
		if j == len(lhsAttrs) {
			return false
		}
		if lhsAttrs[j] != c.Attr || c.subtree == 0 || !c.below.IntersectsDifference(cand, acc) {
			continue // off the lhs, or nothing below is still uncovered
		}
		if t.coveredRec(c, lhsAttrs[j+1:], cand, acc) {
			return true
		}
	}
	return false
}

// Induct applies the non-FD x ↛ y with synergized induction (Algorithm 2):
// every FD X' → Y' in the tree with X' ⊆ x and Y' ∩ y ≠ ∅ loses the
// intersecting RHS attributes, and all non-trivial minimal specializations
// are inserted. It returns the number of FDs removed. It requires
// x ∩ y = ∅ and a minimal tree, which its inserts rely on (see
// insertSpecialization): InductAll's agree sets, FDEP1 and FDEP2's
// negative cover, the approximate Induct(lhs, invalid) and
// Induct(∅, invalid), and a tree restored from a snapshot all satisfy
// both.
func (t *Tree) Induct(x, y bitset.Set) int {
	removedTotal := 0
	path := t.scratchSet(&t.pathBuf)
	path.Clear()
	t.inductRec(t.root, 0, x, y, path, &removedTotal)
	return removedTotal
}

// inductRec walks the nodes below cur whose paths extend path with x
// attributes from next on. It skips a child whose summary misses y, since
// no FD below it loses an attribute, and recomputes each visited node's
// summary once that node's subtree is done.
func (t *Tree) inductRec(cur *Node, next int, x, y, path bitset.Set, removedTotal *int) {
	if cur.RHS != nil && cur.RHS.Intersects(y) {
		removed := cur.RHS.Intersect(y)
		n := removed.Count()
		cur.RHS.DifferenceWith(y)
		t.bump(cur, -n, nil)
		*removedTotal += n
		t.specialize(path, x, removed)
	}
	// One child lookup per x attribute, not a merge or range over
	// cur.children: specialize inserts new siblings into cur.children
	// while this loop runs, which would make such a pass visit a child
	// twice or skip one.
	for a := x.Next(next); a >= 0; a = x.Next(a + 1) {
		if len(cur.children) == 0 || a > cur.children[len(cur.children)-1].Attr {
			break
		}
		if c := cur.child(a); c != nil && c.subtree > 0 && c.below.Intersects(y) {
			path.Add(a)
			t.inductRec(c, a+1, x, y, path, removedTotal)
			path.Remove(a)
		}
	}
	resummarize(cur)
}

// InductAll applies every agree set x in sets as the non-FD x ↛ R ∖ x,
// in descending size with ties lexicographic: the order FDEP2 and DHyFD
// apply non-FDs in, since larger LHSs first eliminate redundant
// inductions (Section IV-H; Algorithm 6, lines 7–8 and 19–20). sets
// itself is left in its order.
func (t *Tree) InductAll(sets []bitset.Set) {
	sorted := slices.Clone(sets)
	slices.SortFunc(sorted, bitset.CompareSizeLex)
	for _, x := range sorted {
		t.Induct(x, t.full.Difference(x))
	}
}

// specialize inserts the minimal non-trivial candidates that replace the
// invalidated FD path → removed, per the two augmentation rules of
// Algorithm 2. It inherits Induct's precondition, x ∩ y = ∅ and a minimal
// tree; inductRec only walks paths inside x, so path ⊆ x, and both rules
// add an attribute outside x.
func (t *Tree) specialize(path, x, removed bitset.Set) {
	// Rule 1: extend the LHS with an attribute outside x ∪ removed.
	outside := t.scratchSet(&t.outsideBuf)
	copy(outside, t.full)
	outside.DifferenceWith(x)
	outside.DifferenceWith(removed)
	lhs := t.scratchSet(&t.lhsBuf)
	copy(lhs, path)
	for a := outside.Next(0); a >= 0; a = outside.Next(a + 1) {
		lhs.Add(a)
		t.insertSpecialization(lhs, a, removed)
		lhs.Remove(a)
	}
	// Rule 2: move one removed attribute onto the LHS.
	if removed.Count() > 1 {
		rest := t.scratchSet(&t.restBuf)
		for a := removed.Next(0); a >= 0; a = removed.Next(a + 1) {
			lhs.Add(a)
			copy(rest, removed)
			rest.Remove(a)
			t.insertSpecialization(lhs, a, rest)
			lhs.Remove(a)
		}
	}
}

// insertSpecialization inserts the candidate lhs → rhs, lhs = path ∪ {a},
// that specialize built from the node path, which just lost rhs, and keeps
// the tree minimal. Under Induct's precondition it needs neither the walk
// over every subset of lhs nor a sweep for specializations:
//
//   - Covering FDs. Let W → A be in the tree with W ⊆ lhs, A ∈ rhs and
//     a ∉ W, so W ⊆ path ⊆ x. Every FD this Induct adds holds its added
//     attribute, which lies outside x, so W → A was in the tree before the
//     call, as was path → A. Minimality rules that out for W ⊊ path, and
//     W = path lost A just now. So only FDs whose LHS holds a can cover
//     the candidate, and coveredThrough walks only the paths through a.
//   - Specializations. Let W → A be in the tree with lhs ⊆ W and A ∈ rhs.
//     Had it been there before the call, path → A would generalize it.
//     So this call added it as p ∪ {b} → A from a node p that lost A.
//     Its only attribute outside x is b, so b = a and path ⊆ p; path → A
//     and p → A were both in the tree before the call, so p = path and
//     W = lhs. Within one node, rule 1 adds attributes outside removed
//     and rule 2 ones inside it, each once, so the node lhs holds no A
//     yet: there is nothing to delete.
func (t *Tree) insertSpecialization(lhs bitset.Set, a int, rhs bitset.Set) {
	covered := t.scratchSet(&t.covBuf)
	covered.Clear()
	t.attrsBuf = lhs.AppendAttrs(t.attrsBuf[:0])
	if t.coveredThrough(t.root, t.attrsBuf, a, rhs, covered) {
		return
	}
	cand := t.scratchSet(&t.candBuf)
	copy(cand, rhs)
	cand.DifferenceWith(covered)
	t.AddFD(lhs, cand)
}

// coveredThrough is coveredRec restricted to the tree paths through a, one
// of lhsAttrs: above a it reads no RHS set and stops at the first child
// past a, and from a's node down it is coveredRec. Nothing joins acc
// above a, so a child there is skipped when its summary misses cand.
func (t *Tree) coveredThrough(cur *Node, lhsAttrs []int, a int, cand, acc bitset.Set) bool {
	j := 0
	for _, c := range cur.children {
		if c.Attr > a {
			return false
		}
		for lhsAttrs[j] < c.Attr { // a is in lhsAttrs, so j stays in range
			j++
		}
		if lhsAttrs[j] != c.Attr || c.subtree == 0 || !c.below.Intersects(cand) {
			continue
		}
		if c.Attr == a {
			return t.coveredRec(c, lhsAttrs[j+1:], cand, acc)
		}
		if t.coveredThrough(c, lhsAttrs[j+1:], a, cand, acc) {
			return true
		}
	}
	return false
}

// NodesAtLevel returns the nodes at the given depth whose subtrees still
// contain FDs, in depth-first order. Depth 0 is the root.
func (t *Tree) NodesAtLevel(level int) []*Node {
	var out []*Node
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.subtree == 0 {
			return
		}
		if depth == level {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return out
}

// MaxLevel returns the deepest level that still contains an FD-node.
func (t *Tree) MaxLevel() int {
	maxDepth := 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() && depth > maxDepth {
			maxDepth = depth
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return maxDepth
}

// FDs extracts every FD in the tree as singleton-free (set-RHS) FDs.
func (t *Tree) FDs() []dep.FD {
	var out []dep.FD
	path := bitset.New(t.numAttrs)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() {
			out = append(out, dep.FD{LHS: path.Clone(), RHS: n.RHS.Clone()})
		}
		for _, c := range n.children {
			path.Add(c.Attr)
			walk(c)
			path.Remove(c.Attr)
		}
	}
	walk(t.root)
	return out
}

// ForEachFD visits every FD-node in depth-first child order with the
// attribute set of its path. The lhs set is reused between calls — the
// visitor must clone it to keep it. Checkpoint serialization walks the
// tree through this: the (lhs, RHS, Pruned) triples are the tree's whole
// logical state, since dead branches (subtree 0) hold no FDs and node
// IDs/epochs are rebuilt as consistent defaults on resume.
func (t *Tree) ForEachFD(fn func(lhs bitset.Set, n *Node)) {
	path := bitset.New(t.numAttrs)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() {
			fn(path, n)
		}
		for _, c := range n.children {
			path.Add(c.Attr)
			walk(c)
			path.Remove(c.Attr)
		}
	}
	walk(t.root)
}

// PropagateID copies n's id and epoch to every descendant, restoring id
// consistency after the dynamic data manager refreshed n's partition
// (Algorithm 3, step 15).
func PropagateID(n *Node) {
	for _, c := range n.children {
		c.ID, c.Epoch = n.ID, n.Epoch
		PropagateID(c)
	}
}

// String renders the tree for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		label := "ROOT"
		if n.Attr >= 0 {
			label = fmt.Sprintf("%d(id=%d)", n.Attr, n.ID)
		}
		rhs := ""
		if n.IsFDNode() {
			rhs = " -> " + n.RHS.String()
		}
		fmt.Fprintf(&b, "%s%s%s [sub=%d]\n", indent, label, rhs, n.subtree)
		for _, c := range n.children {
			walk(c, indent+"  ")
		}
	}
	walk(t.root, "")
	return b.String()
}
