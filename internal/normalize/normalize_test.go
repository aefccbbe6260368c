package normalize

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
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

// Textbook schema: R(A,B,C,D) with A→B, B→C. Keys: {A,D}.
func TestCandidateKeysTextbook(t *testing.T) {
	fds := []dep.FD{fd(4, []int{0}, 1), fd(4, []int{1}, 2)}
	keys := CandidateKeys(4, fds, 0)
	if len(keys) != 1 || !keys[0].Equal(bitset.FromAttrs(4, 0, 3)) {
		t.Fatalf("keys = %v, want [{0,3}]", keys)
	}
}

// R(A,B,C) with A→B, B→C, C→A: every single attribute is a key.
func TestCandidateKeysCycle(t *testing.T) {
	fds := []dep.FD{
		fd(3, []int{0}, 1), fd(3, []int{1}, 2), fd(3, []int{2}, 0),
	}
	keys := CandidateKeys(3, fds, 0)
	if len(keys) != 3 {
		t.Fatalf("keys = %v, want 3 singleton keys", keys)
	}
	for _, k := range keys {
		if k.Count() != 1 {
			t.Errorf("non-minimal key %v", k)
		}
	}
}

func TestCandidateKeysBound(t *testing.T) {
	// 2n attributes with Ai ↔ Bi yields 2^n keys; the bound must hold.
	const n = 5
	var fds []dep.FD
	for i := 0; i < n; i++ {
		fds = append(fds, fd(2*n, []int{2 * i}, 2*i+1), fd(2*n, []int{2*i + 1}, 2*i))
	}
	keys := CandidateKeys(2*n, fds, 8)
	if len(keys) > 8 {
		t.Errorf("bound exceeded: %d keys", len(keys))
	}
	for _, k := range keys {
		if !IsSuperkey(2*n, fds, k) {
			t.Errorf("%v is not a key", k)
		}
	}
}

func TestCandidateKeysMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(4)
		var fds []dep.FD
		for i := 0; i < 2+rng.Intn(5); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if rng.Intn(3) == 0 {
					lhs.Add(a)
				}
			}
			rhs := bitset.New(n)
			rhs.Add(rng.Intn(n))
			rhs.DifferenceWith(lhs)
			if rhs.IsEmpty() {
				continue
			}
			fds = append(fds, dep.FD{LHS: lhs, RHS: rhs})
		}
		keys := CandidateKeys(n, fds, 0)
		if len(keys) == 0 {
			t.Fatalf("trial %d: no keys", trial)
		}
		for _, k := range keys {
			if !IsSuperkey(n, fds, k) {
				t.Fatalf("trial %d: %v not superkey", trial, k)
			}
			// Minimal: removing any attribute breaks it.
			for a := k.Next(0); a >= 0; a = k.Next(a + 1) {
				sub := k.Clone()
				sub.Remove(a)
				if IsSuperkey(n, fds, sub) {
					t.Fatalf("trial %d: key %v not minimal", trial, k)
				}
			}
		}
		// Pairwise incomparable.
		for i := range keys {
			for j := range keys {
				if i != j && keys[i].IsSubsetOf(keys[j]) {
					t.Fatalf("trial %d: key %v ⊆ key %v", trial, keys[i], keys[j])
				}
			}
		}
	}
}

// Classic example: R(city, street, zip) with {city,street}→zip, zip→city.
// 3NF keeps both FDs; BCNF must split and lose one.
func TestZipCodeSchema(t *testing.T) {
	const (
		city = iota
		street
		zip
	)
	fds := []dep.FD{
		fd(3, []int{city, street}, zip),
		fd(3, []int{zip}, city),
	}

	keys := CandidateKeys(3, fds, 0)
	// Keys: {city,street} and {street,zip}.
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}

	three := Synthesize3NF(3, fds)
	if !LosslessAll(3, fds, three) {
		t.Error("3NF not lossless")
	}
	if !Preserved(3, fds, three) {
		t.Error("3NF must preserve dependencies")
	}

	bcnf := DecomposeBCNF(3, fds, 0)
	if !LosslessAll(3, fds, bcnf) {
		t.Error("BCNF not lossless")
	}
	// Every fragment must satisfy BCNF: no projected FD with non-superkey LHS.
	for _, rel := range bcnf {
		if _, violated := findBCNFViolation(3, fds, rel.Attrs); violated {
			t.Errorf("fragment %v still violates BCNF", rel.Attrs)
		}
	}
	// The textbook fact: this schema has no dependency-preserving BCNF
	// decomposition.
	if Preserved(3, fds, bcnf) {
		t.Error("zip schema famously cannot preserve {city,street}→zip in BCNF")
	}
}

func TestSynthesize3NFSimple(t *testing.T) {
	// A→B, B→C: 3NF = (A,B), (B,C); both contain keys of themselves and
	// (A,B) contains the key... the global key {A} ⊆ (A,B) — wait the key
	// of R(A,B,C) is {A}; schema (A,B) contains it.
	fds := []dep.FD{fd(3, []int{0}, 1), fd(3, []int{1}, 2)}
	rels := Synthesize3NF(3, fds)
	if len(rels) != 2 {
		t.Fatalf("rels = %v", rels)
	}
	if !LosslessAll(3, fds, rels) || !Preserved(3, fds, rels) {
		t.Error("3NF properties violated")
	}
}

func TestLossless(t *testing.T) {
	fds := []dep.FD{fd(3, []int{0}, 1)}
	// Split on A→B: (A,B) and (A,C): shared {A} determines (A,B). ✓
	if !Lossless(3, fds, bitset.FromAttrs(3, 0, 1), bitset.FromAttrs(3, 0, 2)) {
		t.Error("valid split rejected")
	}
	// Split (A,B) and (C): shared ∅ determines nothing.
	if Lossless(3, fds, bitset.FromAttrs(3, 0, 1), bitset.FromAttrs(3, 2)) {
		t.Error("lossy split accepted")
	}
}

// TestOnDiscoveredCover: normalization works end-to-end from discovery.
func TestOnDiscoveredCover(t *testing.T) {
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(300, 10)
	n := r.NumCols()
	can := cover.Canonical(n, discover(r))

	keys := CandidateKeys(n, can, 32)
	if len(keys) == 0 {
		t.Fatal("no candidate keys")
	}

	bcnf := DecomposeBCNF(n, can, 0)
	if !LosslessAll(n, can, bcnf) {
		t.Error("BCNF decomposition lossy")
	}
	for _, rel := range bcnf {
		if rel.Attrs.IsEmpty() {
			t.Error("empty fragment")
		}
		if !rel.Key.IsSubsetOf(rel.Attrs) {
			t.Error("fragment key outside fragment")
		}
	}

	three := Synthesize3NF(n, can)
	if !LosslessAll(n, can, three) {
		t.Error("3NF decomposition lossy")
	}
	if !Preserved(n, can, three) {
		t.Error("3NF must preserve dependencies")
	}
}
