package fdtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// attrs A..F = 0..5 for readability.
const (
	A = iota
	B
	C
	D
	E
	F
)

func set(n int, attrs ...int) bitset.Set { return bitset.FromAttrs(n, attrs...) }

func fdsOf(t *Tree) map[string]bool {
	m := map[string]bool{}
	for _, f := range dep.SplitRHS(t.FDs()) {
		m[f.String()] = true
	}
	return m
}

// TestFigure1 builds the extended FD-tree of Figure 1 (right): FDs A→B,
// AB→CD, CD→B over R = {A,B,C,D}.
func TestFigure1(t *testing.T) {
	tr := New(4)
	tr.AddFD(set(4, A), set(4, B))
	tr.AddFD(set(4, A, B), set(4, C, D))
	tr.AddFD(set(4, C, D), set(4, B))

	if got := tr.CountFDs(); got != 4 {
		t.Errorf("CountFDs = %d, want 4 (B, C, D, B)", got)
	}
	// Node A is an FD-node with RHS {B}; its child B holds {C,D}.
	nodeA := tr.Root().child(A)
	if nodeA == nil || !nodeA.IsFDNode() || !nodeA.RHS.Equal(set(4, B)) {
		t.Fatalf("node A wrong: %+v", nodeA)
	}
	nodeAB := nodeA.child(B)
	if nodeAB == nil || !nodeAB.RHS.Equal(set(4, C, D)) {
		t.Fatalf("node AB wrong")
	}
	// Unlike the classic tree, the root carries no labels at all.
	if tr.Root().IsFDNode() {
		t.Error("root should not be an FD-node")
	}
	if lvl1 := tr.NodesAtLevel(1); len(lvl1) != 2 { // A and C
		t.Errorf("level 1 has %d nodes, want 2", len(lvl1))
	}
}

// TestExample2 reproduces Example 2: tree = {AC→E} over R={A..E}; the
// non-FD AC ↛ BDE induces ABC→E and ACD→E.
func TestExample2(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C), set(5, E))
	removed := tr.Induct(set(5, A, C), set(5, B, D, E))
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	got := fdsOf(tr)
	want := []string{
		dep.FD{LHS: set(5, A, B, C), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, E)}.String(),
	}
	if len(got) != 2 {
		t.Fatalf("got %d FDs: %v", len(got), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s in %v", w, got)
		}
	}
	// Node C on path AC must no longer be an FD-node (Example 2's point).
	nodeAC := tr.Root().child(A).child(C)
	if nodeAC.IsFDNode() {
		t.Error("node AC should have lost its RHS")
	}
	if !nodeAC.HasLiveChildren() {
		t.Error("node AC should have a live child D")
	}
}

// TestExample3 reproduces Example 3: tree = {AC→BE}; the non-FD AC ↛ BDE
// induces ACD→BE, ABC→E, ACE→B.
func TestExample3(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C), set(5, B, E))
	tr.Induct(set(5, A, C), set(5, B, D, E))
	got := fdsOf(tr)
	want := []string{
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, B)}.String(),
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, B, C), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, C, E), RHS: set(5, B)}.String(),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d FDs %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// The TestAddMinimalFD tests check the reference insert, addMinimalFD,
// which TestInductMatchesReference holds induction's own inserts to.

func TestAddMinimalFDFiltersGeneralizations(t *testing.T) {
	tr := New(4)
	tr.AddFD(set(4, A), set(4, B))
	// A→B exists; adding AC→{B,D} must only add AC→D.
	added := tr.addMinimalFD(set(4, A, C), set(4, B, D))
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	if !tr.CoveredRHS(set(4, A, C), set(4, B)).Contains(B) {
		t.Error("A→B should cover B")
	}
	node := tr.Root().child(A).child(C)
	if !node.RHS.Equal(set(4, D)) {
		t.Errorf("AC rhs = %v, want {D}", node.RHS)
	}
}

func TestAddMinimalFDRemovesSpecializations(t *testing.T) {
	tr := New(4)
	tr.AddFD(set(4, A, C), set(4, B))
	tr.AddFD(set(4, A, C, D), set(4, B)) // artificial non-minimal state
	added := tr.addMinimalFD(set(4, A), set(4, B))
	if added != 1 {
		t.Errorf("added = %d", added)
	}
	fds := fdsOf(tr)
	if len(fds) != 1 || !fds[dep.FD{LHS: set(4, A), RHS: set(4, B)}.String()] {
		t.Errorf("specializations not removed: %v", fds)
	}
	if tr.CountFDs() != 1 {
		t.Errorf("CountFDs = %d", tr.CountFDs())
	}
}

func TestAddMinimalFDTrivialAndCoveredNoop(t *testing.T) {
	tr := New(4)
	if tr.addMinimalFD(set(4, A, B), set(4, A)) != 0 {
		t.Error("trivial FD should not be added")
	}
	tr.AddFD(set(4, A), set(4, B))
	if tr.addMinimalFD(set(4, A), set(4, B)) != 0 {
		t.Error("duplicate FD should not be added")
	}
}

func TestInductOnFullRHSRoot(t *testing.T) {
	// Start of every induction-based discovery: ∅→R, then apply a non-FD.
	tr := NewWithFullRHS(3)
	if tr.CountFDs() != 3 {
		t.Fatalf("initial count = %d", tr.CountFDs())
	}
	// Non-FD ∅ ↛ {A,B,C}? Realistic: agree set {A} gives A ↛ BC.
	tr.Induct(set(3, A), set(3, B, C))
	// ∅→A survives; ∅→B, ∅→C are specialized.
	got := fdsOf(tr)
	want := map[string]bool{
		dep.FD{LHS: set(3), RHS: set(3, A)}.String():       true,
		dep.FD{LHS: set(3, B), RHS: set(3, C)}.String():    true,
		dep.FD{LHS: set(3, C), RHS: set(3, B)}.String():    true,
		dep.FD{LHS: set(3, A, B), RHS: set(3, C)}.String(): false, // covered by B→C
	}
	for w, present := range want {
		if got[w] != present {
			t.Errorf("FD %s: present=%v want %v (all: %v)", w, got[w], present, got)
		}
	}
}

func TestSubtreeCounters(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A), set(5, B))
	tr.AddFD(set(5, A, C), set(5, D, E))
	if tr.CountFDs() != 3 {
		t.Fatalf("count = %d", tr.CountFDs())
	}
	nodeA := tr.Root().child(A)
	if nodeA.SubtreeFDs() != 3 {
		t.Errorf("subtree(A) = %d", nodeA.SubtreeFDs())
	}
	tr.removeSpecializations(set(5, A, C), set(5, D, E))
	if tr.CountFDs() != 1 || nodeA.SubtreeFDs() != 1 {
		t.Errorf("after removal: count=%d subtree(A)=%d", tr.CountFDs(), nodeA.SubtreeFDs())
	}
	// The AC node is dead; level 2 must be empty.
	if nodes := tr.NodesAtLevel(2); len(nodes) != 0 {
		t.Errorf("level 2 = %d nodes", len(nodes))
	}
}

func TestPathAndDepth(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C, E), set(5, B))
	node := tr.Root().child(A).child(C).child(E)
	if !node.Path(5).Equal(set(5, A, C, E)) {
		t.Errorf("path = %v", node.Path(5))
	}
	if node.Depth() != 3 {
		t.Errorf("depth = %d", node.Depth())
	}
	if tr.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", tr.MaxLevel())
	}
}

func TestIDAssignment(t *testing.T) {
	tr := New(6)
	tr.ControlledLevel = 2
	tr.AddFD(set(6, A, C), set(6, F))
	nodeC := tr.Root().child(A).child(C)
	nodeC.ID = 9 // pretend the DDM assigned slot 3 (9 - 6)
	// New path through AC beyond cl inherits the id.
	tr.AddFD(set(6, A, C, E), set(6, F))
	nodeE := nodeC.child(E)
	if nodeE.ID != 9 {
		t.Errorf("node E id = %d, want inherited 9", nodeE.ID)
	}
	// New node at depth <= cl gets the default id (Example 4's point).
	tr.AddFD(set(6, A, B, C), set(6, E))
	nodeB := tr.Root().child(A).child(B)
	if nodeB.ID != B {
		t.Errorf("node B id = %d, want default %d", nodeB.ID, B)
	}
	nodeC2 := nodeB.child(C)
	if nodeC2.ID != C {
		t.Errorf("node C (path ABC) id = %d, want default %d", nodeC2.ID, C)
	}
	// Propagation copies ids downward.
	nodeC.ID = 11
	PropagateID(nodeC)
	if nodeE.ID != 11 {
		t.Errorf("after propagate, node E id = %d", nodeE.ID)
	}
}

func TestClassicTreeLabels(t *testing.T) {
	tr := NewClassic(4)
	tr.Add(set(4, A), B)
	tr.Add(set(4, A, B), C)
	tr.Add(set(4, A, B), D)
	tr.Add(set(4, C, D), B)
	if tr.CountFDs() != 4 {
		t.Fatalf("count = %d", tr.CountFDs())
	}
	// Classic labelling: root carries every RHS attribute (Figure 1 left).
	if !tr.root.labels.Contains(B) || !tr.root.labels.Contains(C) || !tr.root.labels.Contains(D) {
		t.Errorf("root labels = %v", tr.root.labels)
	}
	if !tr.ContainsGeneralization(set(4, A, B, C), B) {
		t.Error("A→B is a generalization of ABC→B")
	}
	if tr.ContainsGeneralization(set(4, C), B) {
		t.Error("no generalization of C→B exists")
	}
}

func TestClassicRemoveGeneralizations(t *testing.T) {
	tr := NewClassic(4)
	tr.Add(set(4, A), B)
	tr.Add(set(4, C), B)
	removed := tr.RemoveGeneralizations(set(4, A, C, D), B)
	if len(removed) != 2 {
		t.Fatalf("removed %d FDs", len(removed))
	}
	if tr.CountFDs() != 0 {
		t.Errorf("count = %d", tr.CountFDs())
	}
}

// TestClassicVsSynergizedEquivalence checks the load-bearing property that
// classic per-attribute induction and synergized induction compute the same
// minimal FD set from the same non-FD stream.
func TestClassicVsSynergizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 6
	for trial := 0; trial < 30; trial++ {
		ext := NewWithFullRHS(n)
		cls := NewClassicWithFullRHS(n)
		nonFDs := randomNonFDs(rng, n, 1+rng.Intn(12))
		for _, x := range nonFDs {
			y := bitset.Full(n)
			y.DifferenceWith(x)
			ext.Induct(x, y)
			for a := y.Next(0); a >= 0; a = y.Next(a + 1) {
				cls.SpecializeClassic(x, a)
			}
		}
		extFDs := dep.SplitRHS(ext.FDs())
		clsFDs := dep.SplitRHS(cls.FDs())
		if !dep.Equal(extFDs, clsFDs) {
			onlyA, onlyB := dep.Diff(extFDs, clsFDs, nil)
			t.Fatalf("trial %d: trees diverge.\nnon-FD LHSs: %v\nonly extended: %v\nonly classic: %v",
				trial, nonFDs, onlyA, onlyB)
		}
		// InductAll reorders a copy, never the caller's slice, and the
		// order of inductions does not change the result.
		order := slices.Clone(nonFDs)
		all := NewWithFullRHS(n)
		all.InductAll(nonFDs)
		if !slices.EqualFunc(nonFDs, order, bitset.Set.Equal) {
			t.Fatalf("trial %d: InductAll reordered its argument", trial)
		}
		if allFDs := dep.SplitRHS(all.FDs()); !dep.Equal(allFDs, clsFDs) {
			t.Fatalf("trial %d: InductAll diverges from the classic tree", trial)
		}
	}
}

func randomNonFDs(rng *rand.Rand, n, k int) []bitset.Set {
	out := make([]bitset.Set, k)
	for i := range out {
		s := bitset.New(n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) != 0 {
				s.Add(j)
			}
		}
		// A non-FD X ↛ R−X needs a non-full X to be meaningful.
		if s.Count() == n {
			s.Remove(rng.Intn(n))
		}
		out[i] = s
	}
	return out
}

// TestMinimalityInvariant checks that after arbitrary induction sequences
// no FD in the tree has a generalization in the tree.
func TestMinimalityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 7
	for trial := 0; trial < 20; trial++ {
		tr := NewWithFullRHS(n)
		for _, x := range randomNonFDs(rng, n, 1+rng.Intn(15)) {
			y := bitset.Full(n)
			y.DifferenceWith(x)
			tr.Induct(x, y)
		}
		fds := dep.SplitRHS(tr.FDs())
		for i, f := range fds {
			for j, g := range fds {
				if i == j {
					continue
				}
				if g.RHS.Equal(f.RHS) && g.LHS.IsSubsetOf(f.LHS) {
					t.Fatalf("trial %d: %s has generalization %s", trial, f, g)
				}
			}
		}
		// Counter consistency.
		if got := len(fds); got != tr.CountFDs() {
			t.Fatalf("trial %d: CountFDs=%d but extracted %d", trial, tr.CountFDs(), got)
		}
	}
}

// TestInductionSoundComplete: the tree after processing all non-FDs must
// contain exactly the minimal FDs not contradicted by any processed non-FD.
func TestInductionSoundComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 5
	for trial := 0; trial < 40; trial++ {
		tr := NewWithFullRHS(n)
		nonFDs := randomNonFDs(rng, n, 1+rng.Intn(8))
		for _, x := range nonFDs {
			y := bitset.Full(n)
			y.DifferenceWith(x)
			tr.Induct(x, y)
		}
		got := map[string]bool{}
		for _, f := range dep.SplitRHS(tr.FDs()) {
			got[f.String()] = true
		}
		want := bruteForceMinimalUncontradicted(n, nonFDs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d FDs want %d\ngot: %v\nwant: %v", trial, len(got), len(want), got, want)
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("trial %d: missing %s", trial, w)
			}
		}
	}
}

// bruteForceMinimalUncontradicted enumerates all minimal FDs X→a over n
// attributes such that no non-FD Z (meaning Z ↛ R−Z) has X ⊆ Z and a ∉ Z.
func bruteForceMinimalUncontradicted(n int, nonFDs []bitset.Set) map[string]bool {
	res := map[string]bool{}
	for a := 0; a < n; a++ {
		var valid []bitset.Set
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<a) != 0 {
				continue
			}
			x := bitset.New(n)
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					x.Add(b)
				}
			}
			contradicted := false
			for _, z := range nonFDs {
				if x.IsSubsetOf(z) && !z.Contains(a) {
					contradicted = true
					break
				}
			}
			if contradicted {
				continue
			}
			minimal := true
			for _, v := range valid {
				if v.IsSubsetOf(x) {
					minimal = false
					break
				}
			}
			if minimal {
				valid = append(valid, x)
				rhs := bitset.New(n)
				rhs.Add(a)
				res[dep.FD{LHS: x, RHS: rhs}.String()] = true
			}
		}
	}
	return res
}

// TestSummaryInvariant drives random induction streams on schemas of one,
// two and three words per set and checks after every step that each
// node's summary holds the RHS attributes of every FD-node at or below it
// and that the counters match the extracted FDs. Between inductions it
// removes and restores RHS attributes the way cover.RemoveRedundant does,
// including cycles that kill a whole subtree, let a clearing walk drop it
// from its parent's summary, and then repopulate it: an insert whose
// upward OR stopped at the dead subtree's stale summary would leave the
// ancestors' summaries too small. At the end the tree must equal the
// classic tree fed the same stream, and CoveredRHS and the reference
// removeSpecializations must match a brute-force scan over FDs().
func TestSummaryInvariant(t *testing.T) {
	for _, n := range []int{7, 70, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			pool := spreadAttrs(n, 9)
			full := bitset.Full(n)
			for trial := 0; trial < 12; trial++ {
				ext := NewWithFullRHS(n)
				cls := NewClassicWithFullRHS(n)
				for step := 0; step < 20; step++ {
					x := poolNonFD(rng, n, pool)
					y := full.Difference(x)
					ext.Induct(x, y)
					for a := y.Next(0); a >= 0; a = y.Next(a + 1) {
						cls.SpecializeClassic(x, a)
					}
					checkSummaries(t, ext)
					switch rng.Intn(3) {
					case 0:
						tentativeRemoval(t, rng, ext)
					case 1:
						killAndRepopulate(t, rng, ext)
					}
				}
				extFDs := dep.SplitRHS(ext.FDs())
				if clsFDs := dep.SplitRHS(cls.FDs()); !dep.Equal(extFDs, clsFDs) {
					onlyExt, onlyCls := dep.Diff(extFDs, clsFDs, nil)
					t.Fatalf("trial %d: trees diverge\nonly extended: %v\nonly classic: %v", trial, onlyExt, onlyCls)
				}
				for q := 0; q < 20; q++ {
					lhs, cand := randomSubset(rng, n, pool), randomSubset(rng, n, pool)
					if got, want := ext.CoveredRHS(lhs, cand), bruteCovered(extFDs, lhs, cand); !got.Equal(want) {
						t.Fatalf("trial %d: CoveredRHS(%v, %v) = %v, brute force %v", trial, lhs, cand, got, want)
					}
				}
				removeAndReadd(t, rng, ext, pool)
			}
		})
	}
}

// TestInductMatchesReference drives random induction streams through
// Induct and, on a second tree, through refInduct, whose inserts are the
// general addMinimalFD, and requires after every step the same removal
// count, the same FDs in the same order and the same nodes: attributes,
// ids, RHS sets, subtree counters and summaries. The streams mix
// TestSummaryInvariant's agree sets with batches of Induct(lhs, invalid)
// calls on live FD-nodes, the root included, in the form approximate runs
// make them after a validation level.
func TestInductMatchesReference(t *testing.T) {
	for _, n := range []int{7, 70, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			pool := spreadAttrs(n, 9)
			full := bitset.Full(n)
			for trial := 0; trial < 12; trial++ {
				got, ref := NewWithFullRHS(n), NewWithFullRHS(n)
				for step := 0; step < 30; step++ {
					var xs, ys []bitset.Set
					if pairs := pairsBelow(got.root); rng.Intn(3) == 0 && len(pairs) > 0 {
						for k := 1 + rng.Intn(3); k > 0; k-- {
							node := pairs[rng.Intn(len(pairs))].node
							xs = append(xs, node.Path(n))
							ys = append(ys, randomNonEmptySubset(rng, node.RHS))
						}
					} else {
						x := poolNonFD(rng, n, pool)
						xs, ys = append(xs, x), append(ys, full.Difference(x))
					}
					for i, x := range xs {
						if g, r := got.Induct(x, ys[i]), ref.refInduct(x, ys[i]); g != r {
							t.Fatalf("trial %d step %d: Induct(%v, %v) removed %d FDs, the reference %d", trial, step, x, ys[i], g, r)
						}
						if err := sameTrees(got, ref); err != nil {
							t.Fatalf("trial %d step %d: after Induct(%v, %v): %v", trial, step, x, ys[i], err)
						}
					}
				}
			}
		})
	}
}

// randomNonEmptySubset keeps each attribute of s with probability 1/2,
// and one at random when that keeps none.
func randomNonEmptySubset(rng *rand.Rand, s bitset.Set) bitset.Set {
	out := make(bitset.Set, len(s))
	attrs := s.Attrs()
	for _, a := range attrs {
		if rng.Intn(2) == 0 {
			out.Add(a)
		}
	}
	if out.IsEmpty() {
		out.Add(attrs[rng.Intn(len(attrs))])
	}
	return out
}

// sameTrees reports the first difference between got and ref: their FD
// counts, their FDs in extraction order, or a node's attribute, id, epoch,
// RHS set, subtree counter, summary or number of children.
func sameTrees(got, ref *Tree) error {
	if g, r := got.CountFDs(), ref.CountFDs(); g != r {
		return fmt.Errorf("CountFDs %d, reference %d", g, r)
	}
	gf, rf := got.FDs(), ref.FDs()
	if !slices.EqualFunc(gf, rf, func(a, b dep.FD) bool { return a.LHS.Equal(b.LHS) && a.RHS.Equal(b.RHS) }) {
		onlyGot, onlyRef := dep.Diff(dep.SplitRHS(gf), dep.SplitRHS(rf), nil)
		return fmt.Errorf("FDs differ: only in the tree %v, only in the reference %v", onlyGot, onlyRef)
	}
	var walk func(g, r *Node) error
	walk = func(g, r *Node) error {
		switch {
		case g.Attr != r.Attr, g.ID != r.ID, g.Epoch != r.Epoch:
			return fmt.Errorf("node %v (id %d, epoch %d), reference %v (id %d, epoch %d)", g.Attr, g.ID, g.Epoch, r.Attr, r.ID, r.Epoch)
		case (g.RHS == nil) != (r.RHS == nil), g.RHS != nil && !g.RHS.Equal(r.RHS):
			return fmt.Errorf("node %v: RHS %v, reference %v", g.Path(got.numAttrs), g.RHS, r.RHS)
		case g.subtree != r.subtree:
			return fmt.Errorf("node %v: subtree %d, reference %d", g.Path(got.numAttrs), g.subtree, r.subtree)
		case !g.below.Equal(r.below):
			return fmt.Errorf("node %v: summary %v, reference %v", g.Path(got.numAttrs), g.below, r.below)
		case len(g.children) != len(r.children):
			return fmt.Errorf("node %v: %d children, reference %d", g.Path(got.numAttrs), len(g.children), len(r.children))
		}
		for i, c := range g.children {
			if err := walk(c, r.children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(got.root, ref.root)
}

// spreadAttrs returns k attributes spread evenly over [0, n), so a schema
// of several words has pool attributes in every word.
func spreadAttrs(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * (n - 1) / (k - 1)
	}
	return out
}

// poolNonFD returns an agree set missing a random part of pool. Inductions
// then specialize on pool attributes only, which keeps trees over wide
// schemas small while their RHS sets span every word.
func poolNonFD(rng *rand.Rand, n int, pool []int) bitset.Set {
	x := bitset.Full(n)
	for _, a := range pool {
		if rng.Intn(3) == 0 {
			x.Remove(a)
		}
	}
	if x.Count() == n {
		x.Remove(pool[rng.Intn(len(pool))])
	}
	return x
}

func randomSubset(rng *rand.Rand, n int, pool []int) bitset.Set {
	s := bitset.New(n)
	for _, a := range pool {
		if rng.Intn(2) == 0 {
			s.Add(a)
		}
	}
	s.Add(rng.Intn(n))
	return s
}

// checkSummaries asserts the summary invariant at every node and that
// CountFDs agrees with the extracted FDs.
func checkSummaries(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(n *Node) bitset.Set
	walk = func(n *Node) bitset.Set {
		union := tr.newRHS()
		if n.RHS != nil {
			union.UnionWith(n.RHS)
		}
		for _, c := range n.children {
			union.UnionWith(walk(c))
		}
		if !union.IsSubsetOf(n.below) {
			t.Fatalf("node %v (path %v): summary %v misses RHS attributes %v below it",
				n.Attr, n.Path(tr.numAttrs), n.below, union.Difference(n.below))
		}
		return union
	}
	walk(tr.root)
	if got, want := tr.CountFDs(), len(dep.SplitRHS(tr.FDs())); got != want {
		t.Fatalf("CountFDs = %d, FDs() holds %d", got, want)
	}
}

type rhsPair struct {
	node *Node
	attr int
}

// pairsBelow lists the (FD-node, RHS attribute) pairs at or below n.
func pairsBelow(n *Node) []rhsPair {
	var out []rhsPair
	if n.RHS != nil {
		for a := n.RHS.Next(0); a >= 0; a = n.RHS.Next(a + 1) {
			out = append(out, rhsPair{n, a})
		}
	}
	for _, c := range n.children {
		out = append(out, pairsBelow(c)...)
	}
	return out
}

// liveNodes lists the non-root nodes whose subtrees still hold FDs.
func liveNodes(tr *Tree) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.children {
			if c.subtree > 0 {
				out = append(out, c)
				walk(c)
			}
		}
	}
	walk(tr.root)
	return out
}

// tentativeRemoval drops one RHS attribute and puts it back.
func tentativeRemoval(t *testing.T, rng *rand.Rand, tr *Tree) {
	t.Helper()
	pairs := pairsBelow(tr.root)
	if len(pairs) == 0 {
		return
	}
	p := pairs[rng.Intn(len(pairs))]
	tr.removeRHS(p.node, p.attr)
	checkSummaries(t, tr)
	tr.addRHS(p.node, p.attr)
	checkSummaries(t, tr)
}

// killAndRepopulate removes every RHS attribute below a random live node
// d, runs an induction that removes no FD but recomputes the summaries of
// d's ancestors (so they drop d's stale summary), and restores the
// attributes one at a time. By minimality no FD Z → b with Z inside d's
// parent path exists when b was an RHS attribute below d, so the
// induction is a no-op on the FD set.
func killAndRepopulate(t *testing.T, rng *rand.Rand, tr *Tree) {
	t.Helper()
	live := liveNodes(tr)
	if len(live) == 0 {
		return
	}
	d := live[rng.Intn(len(live))]
	before := dep.SplitRHS(tr.FDs())
	pairs := pairsBelow(d)
	for _, p := range pairs {
		tr.removeRHS(p.node, p.attr)
	}
	if d.subtree != 0 {
		t.Fatalf("subtree of %v still holds %d FDs", d.Path(tr.numAttrs), d.subtree)
	}
	checkSummaries(t, tr)
	b := bitset.New(tr.numAttrs)
	b.Add(pairs[rng.Intn(len(pairs))].attr)
	if removed := tr.Induct(d.parent.Path(tr.numAttrs), b); removed != 0 {
		t.Fatalf("no-op induction removed %d FDs", removed)
	}
	checkSummaries(t, tr)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		tr.addRHS(p.node, p.attr)
		checkSummaries(t, tr)
	}
	if after := dep.SplitRHS(tr.FDs()); !dep.Equal(before, after) {
		t.Fatalf("kill and repopulate changed the FDs:\nbefore %v\nafter  %v", before, after)
	}
}

// bruteCovered is CoveredRHS by a scan over every FD.
func bruteCovered(fds []dep.FD, lhs, cand bitset.Set) bitset.Set {
	acc := make(bitset.Set, len(cand))
	for _, f := range fds {
		if f.LHS.IsSubsetOf(lhs) {
			acc.UnionIntersection(f.RHS, cand)
		}
	}
	return acc
}

// removeAndReadd checks removeSpecializations against a brute-force scan,
// then puts the removed FDs back with AddFD, repopulating the subtrees the
// removals killed, and requires the original FDs again.
func removeAndReadd(t *testing.T, rng *rand.Rand, tr *Tree, pool []int) {
	t.Helper()
	original := dep.SplitRHS(tr.FDs())
	var removed []dep.FD
	for q := 0; q < 5; q++ {
		lhs, rhs := randomSubset(rng, tr.numAttrs, pool), randomSubset(rng, tr.numAttrs, pool)
		var want []dep.FD
		for _, f := range dep.SplitRHS(tr.FDs()) {
			if lhs.IsSubsetOf(f.LHS) && f.RHS.IsSubsetOf(rhs) {
				removed = append(removed, f)
			} else {
				want = append(want, f)
			}
		}
		tr.removeSpecializations(lhs, rhs)
		checkSummaries(t, tr)
		if got := dep.SplitRHS(tr.FDs()); !dep.Equal(got, want) {
			onlyGot, onlyWant := dep.Diff(got, want, nil)
			t.Fatalf("removeSpecializations(%v, %v): only tree %v, only brute force %v", lhs, rhs, onlyGot, onlyWant)
		}
	}
	for _, f := range removed {
		tr.AddFD(f.LHS, f.RHS)
		checkSummaries(t, tr)
	}
	if got := dep.SplitRHS(tr.FDs()); !dep.Equal(got, original) {
		t.Fatalf("re-adding the removed FDs did not restore the tree")
	}
}
