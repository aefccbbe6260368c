package cover

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/tane"
)

// refLeftReduce is the greedy left-reduction over Engine.Implies: every
// LHS attribute is tried in ascending order, and duplicates are dropped.
// LeftReduce must equal it element for element.
func refLeftReduce(numAttrs int, fds []dep.FD) []dep.FD {
	split := dep.SplitRHS(fds)
	e := NewEngine(numAttrs, split)
	seen := make(map[string]bool, len(split))
	var out []dep.FD
	for _, f := range split {
		lhs := f.LHS.Clone()
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			lhs.Remove(a)
			if !e.Implies(lhs, f.RHS, -1) {
				lhs.Add(a)
			}
		}
		g := dep.FD{LHS: lhs, RHS: f.RHS}
		if k := g.Key(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// refRemoveRedundant is the sequential redundancy elimination over
// Engine.Implies: each FD in slice order is killed for good when the live
// rest imply it.
func refRemoveRedundant(numAttrs int, fds []dep.FD) []dep.FD {
	split := dep.SplitRHS(fds)
	seen := make(map[string]bool, len(split))
	var uniq []dep.FD
	for _, f := range split {
		if k := f.Key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, f)
		}
	}
	e := NewEngine(numAttrs, uniq)
	var out []dep.FD
	for i, f := range uniq {
		e.Kill(i)
		if !e.Implies(f.LHS, f.RHS, -1) {
			e.Revive(i)
			out = append(out, f)
		}
	}
	return out
}

func refCanonical(numAttrs int, fds []dep.FD) []dep.FD {
	return dep.MergeByLHS(refRemoveRedundant(numAttrs, refLeftReduce(numAttrs, fds)))
}

// sameFDs reports the first position where got and want differ, down to
// the words of each set (FD.Key holds them all).
func sameFDs(got, want []dep.FD) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d FDs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			return fmt.Errorf("FD %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAgainstReference runs every cover function on fds and compares it
// with the reference, LeftReduce also through windows small enough that
// one cover takes several and a reduced LHS misses them.
func checkAgainstReference(t *testing.T, name string, n int, fds []dep.FD) {
	t.Helper()
	wantLR := refLeftReduce(n, fds)
	if err := sameFDs(LeftReduce(n, fds), wantLR); err != nil {
		t.Fatalf("%s: LeftReduce: %v", name, err)
	}
	for _, limit := range []int{1, 5, 64} {
		got, _, _ := leftReduce(n, fds, limit)
		if err := sameFDs(got, wantLR); err != nil {
			t.Fatalf("%s: LeftReduce with %d-set windows: %v", name, limit, err)
		}
	}
	if err := sameFDs(RemoveRedundant(n, fds), refRemoveRedundant(n, fds)); err != nil {
		t.Fatalf("%s: RemoveRedundant: %v", name, err)
	}
	if err := sameFDs(Canonical(n, fds), refCanonical(n, fds)); err != nil {
		t.Fatalf("%s: Canonical: %v", name, err)
	}
}

// reducibleFDs returns a random cover over n attributes that is far from
// left-reduced: short LHSs that make long ones reducible, a few empty
// LHSs, set-valued RHSs and exact duplicates.
func reducibleFDs(rng *rand.Rand, n int) []dep.FD {
	var fds []dep.FD
	for i := 1 + rng.Intn(3*n/2+10); i > 0; i-- {
		lhs := randomSet(rng, n, 6)
		if rng.Intn(15) == 0 {
			lhs.Clear()
		}
		rhs := randomSet(rng, n, 2)
		rhs.Add(rng.Intn(n))
		fds = append(fds, dep.FD{LHS: lhs, RHS: rhs})
		if rng.Intn(8) == 0 {
			fds = append(fds, dep.FD{LHS: lhs.Clone(), RHS: rhs.Clone()})
		}
	}
	return fds
}

// TestCoverMatchesReference compares LeftReduce, RemoveRedundant and
// Canonical with the reference on random covers at every width, with
// empty LHSs and duplicates.
func TestCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range append([]int{5}, testWidths...) {
		for trial := 0; trial < 40; trial++ {
			checkAgainstReference(t, fmt.Sprintf("n=%d trial %d", n, trial), n, reducibleFDs(rng, n))
		}
	}
}

// TestCoverWindowMiss pins the fallback: AB→C and ABCD→E with A→E reduce
// ABCD→E to A→E, and after the first reduction the queries ask for sets
// no window holds.
func TestCoverWindowMiss(t *testing.T) {
	const n = 5
	fds := []dep.FD{fd(n, []int{0, 1}, 2), fd(n, []int{0}, 4), fd(n, []int{0, 1, 2, 3}, 4)}
	checkAgainstReference(t, "window miss", n, fds)
	if got := LeftReduce(n, fds); len(got) != 2 || got[1].LHS.Count() != 1 {
		t.Fatalf("LeftReduce = %v, want AB→C and A→E", got)
	}
}

// TestCoverMatchesReferenceDiscovered compares the cover functions with
// the reference on TANE's left-reduced cover of every benchmark shape.
func TestCoverMatchesReferenceDiscovered(t *testing.T) {
	for _, bm := range dataset.All() {
		r := bm.Generate(300, 12)
		fds, _, err := tane.Run(context.Background(), r, tane.Config{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		checkAgainstReference(t, bm.Name, r.NumCols(), fds)
	}
}
