package cover

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// testWidths cross the word boundaries of the index's sets: one word,
// exactly one, one bit past it, and three words.
var testWidths = []int{9, 63, 64, 65, 130}

// randomSet returns a set of up to size attributes of n, drawn from the
// whole range so that sets and LHSs straddle word boundaries.
func randomSet(rng *rand.Rand, n, size int) bitset.Set {
	s := bitset.New(n)
	for i := rng.Intn(size + 1); i > 0; i-- {
		s.Add(rng.Intn(n))
	}
	return s
}

// chainFDs returns k random FDs over n attributes with LHSs of up to 4
// attributes (a few empty) and singleton RHSs: enough short LHSs that
// closures grow over several steps at every width.
func chainFDs(rng *rand.Rand, n, k int) []dep.FD {
	fds := make([]dep.FD, k)
	for i := range fds {
		lhs := randomSet(rng, n, 4)
		if rng.Intn(25) == 0 {
			lhs.Clear()
		}
		fds[i] = dep.FD{LHS: lhs, RHS: bitset.FromAttrs(n, rng.Intn(n))}
	}
	return fds
}

// TestTrieReachesMatchesEngine checks the index's scalar walk against the
// counter-based engine over random FD sets and queries at every width:
// with a target it must answer Implies, and without one it must leave
// the whole closure.
func TestTrieReachesMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range testWidths {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				fds := chainFDs(rng, n, 1+rng.Intn(2*n))
				engine := NewEngine(n, fds)
				ix := newIndex(n, fds)
				for q := 0; q < 16; q++ {
					x := randomSet(rng, n, 5)
					want := engine.Closure(x, -1)
					if ix.reaches(x, -1) || !bitset.Set(ix.cl).Equal(want) {
						t.Fatalf("trial %d: closure of %v = %v, engine %v\nfds: %v", trial, x, ix.cl, want, fds)
					}
					target := rng.Intn(n)
					if got := ix.reaches(x, target); got != want.Contains(target) {
						t.Fatalf("trial %d: reaches(%v, %d) = %v, engine %v\nfds: %v",
							trial, x, target, got, want.Contains(target), fds)
					}
				}
			}
		})
	}
}

// TestTrieBatchMatchesEngine checks the 64-wide kernel against the engine:
// every set of a full batch, and of short ones, gets its own closure.
func TestTrieBatchMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range testWidths {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				fds := chainFDs(rng, n, 1+rng.Intn(2*n))
				engine := NewEngine(n, fds)
				ix := newIndex(n, fds)
				m := make([]uint64, 64*ix.words)
				for _, k := range []int{64, 1, 37} {
					sets := make([]uint64, k*ix.words)
					want := make([]bitset.Set, k)
					for j := range want {
						x := randomSet(rng, n, 5)
						copy(sets[j*ix.words:], x)
						want[j] = engine.Closure(x, -1)
					}
					ix.closeBatch(sets, k, m)
					for j := range want {
						got := bitset.New(n)
						for a := 0; a < n; a++ {
							if m[a]&(1<<j) != 0 {
								got.Add(a)
							}
						}
						if !got.Equal(want[j]) {
							t.Fatalf("trial %d, batch of %d: set %d closes to %v, engine %v\nfds: %v",
								trial, k, j, got, want[j], fds)
						}
					}
				}
			}
		})
	}
}

// TestTrieRHSFindsEveryNode checks the build and the rank lookup: the
// build makes exactly the nodes it counted, every LHS of the list reaches
// its own node, whose RHS holds the FD's attribute, and a path the list
// lacks reaches none.
func TestTrieRHSFindsEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range testWidths {
		fds := chainFDs(rng, n, 3*n)
		ix := newIndex(n, fds)
		if len(ix.first) != cap(ix.first) {
			t.Errorf("n=%d: built %d nodes of the %d counted", n, len(ix.first), cap(ix.first))
		}
		for _, f := range fds {
			rhs := ix.rhs(f.LHS)
			if rhs == nil || !bitset.Set(rhs).Contains(f.RHS.Min()) {
				t.Fatalf("n=%d: rhs(%v) = %v, want it to hold %d", n, f.LHS, rhs, f.RHS.Min())
			}
		}
		full := bitset.Full(n)
		if ix.rhs(full) != nil {
			t.Errorf("n=%d: rhs of the full schema, which no LHS is, = %v", n, ix.rhs(full))
		}
	}
}

// TestCompareLexMatchesBitset checks the word-at-a-time order the build
// sorts by against bitset.CompareLex, and commonPrefix against the
// attribute lists, on sets of mixed widths.
func TestCompareLexMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		n := testWidths[rng.Intn(len(testWidths))]
		a := randomSet(rng, n, 6)
		b := randomSet(rng, testWidths[rng.Intn(len(testWidths))], 6)
		if rng.Intn(4) == 0 {
			b = a.Clone()
			b.Add(rng.Intn(n))
		}
		if got, want := compareLex(a, b), bitset.CompareLex(a, b); got != want {
			t.Fatalf("compareLex(%v, %v) = %d, bitset.CompareLex %d", a, b, got, want)
		}
		x, y := a.Attrs(), b.Attrs()
		want := 0
		for want < len(x) && want < len(y) && x[want] == y[want] {
			want++
		}
		if got := commonPrefix(a, b); got != want {
			t.Fatalf("commonPrefix(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

// TestTrieRemoveRestore checks that clearing an RHS bit takes an FD out
// of implication and setting it brings it back.
func TestTrieRemoveRestore(t *testing.T) {
	const n = 4
	fds := []dep.FD{fd(n, []int{0}, 1), fd(n, []int{1}, 2)}
	ix := newIndex(n, fds)
	x := bitset.FromAttrs(n, 0)
	if !ix.reaches(x, 2) {
		t.Fatal("A→C should hold via transitivity")
	}
	rhs := ix.rhs(bitset.FromAttrs(n, 1))
	rhs[0] &^= 1 << 2
	if ix.reaches(x, 2) {
		t.Error("A→C should fail with B→C removed")
	}
	rhs[0] |= 1 << 2
	if !ix.reaches(x, 2) {
		t.Error("A→C should hold again after restore")
	}
}

// TestTrieEmptyLHS: empty-LHS FDs are the root's RHS; they must take part
// in closures and survive remove/restore cycles.
func TestTrieEmptyLHS(t *testing.T) {
	const n = 3
	fds := []dep.FD{fd(n, nil, 0), fd(n, []int{0}, 1)}
	ix := newIndex(n, fds)
	if !ix.reaches(bitset.New(n), 1) {
		t.Fatal("∅→B should hold via ∅→A, A→B")
	}
	root := ix.rhs(bitset.New(n))
	root[0] &^= 1
	if ix.reaches(bitset.New(n), 1) {
		t.Error("∅→B should fail with ∅→A removed")
	}
	root[0] |= 1
	if !ix.reaches(bitset.New(n), 1) {
		t.Error("∅→B should hold after restore")
	}
}

// TestTrieAllocsPerRun pins the walks at zero allocations on a built
// index: a closure query and a full 64-set batch.
func TestTrieAllocsPerRun(t *testing.T) {
	const n = 65
	rng := rand.New(rand.NewSource(31))
	fds := chainFDs(rng, n, 2*n)
	ix := newIndex(n, fds)
	x := randomSet(rng, n, 5)
	sets := make([]uint64, 64*ix.words)
	for j := 0; j < 64; j++ {
		copy(sets[j*ix.words:], randomSet(rng, n, 5))
	}
	m := make([]uint64, 64*ix.words)
	if a := testing.AllocsPerRun(100, func() { ix.reaches(x, -1) }); a != 0 {
		t.Errorf("reaches allocates %.1f times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { ix.closeBatch(sets, 64, m) }); a != 0 {
		t.Errorf("closeBatch allocates %.1f times per call", a)
	}
}

// TestRemoveRedundantDuplicates: exact duplicate FDs must collapse to one.
func TestRemoveRedundantDuplicates(t *testing.T) {
	fds := []dep.FD{fd(3, []int{0}, 1), fd(3, []int{0}, 1)}
	got := RemoveRedundant(3, fds)
	if len(got) != 1 {
		t.Fatalf("duplicates survived: %v", got)
	}
}

// TestQuickRemoveRedundantEquivalence: the result must always be equivalent
// and non-redundant, whatever the input.
func TestQuickRemoveRedundantEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 8
	for trial := 0; trial < 80; trial++ {
		fds := randomFDs(rng, n, 1+rng.Intn(12))
		got := RemoveRedundant(n, fds)
		if !Equivalent(n, fds, got) {
			t.Fatalf("trial %d: not equivalent", trial)
		}
		if !IsNonRedundant(n, got) {
			t.Fatalf("trial %d: still redundant: %v", trial, got)
		}
	}
}
