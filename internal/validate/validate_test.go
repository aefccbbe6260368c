package validate

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sampling"
)

func single(r *relation.Relation, a int) (*partition.Partition, bitset.Set) {
	s := bitset.New(r.NumCols())
	s.Add(a)
	return partition.Single(r.Cols[a], r.Cards[a]), s
}

func TestFDValidAndInvalid(t *testing.T) {
	// col0 -> col1 holds; col0 -> col2 does not.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1, 1},
		{5, 5, 6, 6},
		{0, 1, 0, 1},
	}, nil, relation.NullEqNull)
	v := New(r)
	p, attrs := single(r, 0)
	nonFDs := sampling.NewNonFDSet(3)
	valid := v.FD(bitset.FromAttrs(3, 0), bitset.FromAttrs(3, 1, 2), p, attrs, nonFDs)
	if !valid.Equal(bitset.FromAttrs(3, 1)) {
		t.Errorf("valid = %v, want {1}", valid)
	}
	if nonFDs.Len() == 0 {
		t.Error("invalidation must record a witness non-FD")
	}
	// The witness agree set must contain the LHS and exclude col2.
	for _, x := range nonFDs.Sets() {
		if !x.Contains(0) || x.Contains(2) {
			t.Errorf("witness %v does not witness 0 ↛ 2", x)
		}
	}
	if v.Validations != 2 || v.Invalidated != 1 {
		t.Errorf("counters = %d/%d", v.Validations, v.Invalidated)
	}
}

func TestFDWithPartialStartPartition(t *testing.T) {
	// Validate {0,1} -> 2 starting from π_0 only: the refinement path.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0, 0},
		{0, 0, 1, 1},
		{4, 4, 5, 5},
	}, nil, relation.NullEqNull)
	v := New(r)
	p, attrs := single(r, 0)
	valid := v.FD(bitset.FromAttrs(3, 0, 1), bitset.FromAttrs(3, 2), p, attrs, nil)
	if !valid.Equal(bitset.FromAttrs(3, 2)) {
		t.Errorf("valid = %v, want {2}", valid)
	}
}

func TestEmptyLHSFindsConstants(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{7, 7, 7},
		{0, 1, 2},
	}, nil, relation.NullEqNull)
	v := New(r)
	nonFDs := sampling.NewNonFDSet(2)
	valid := v.EmptyLHS(bitset.Full(2), nonFDs)
	if !valid.Equal(bitset.FromAttrs(2, 0)) {
		t.Errorf("constants = %v, want {0}", valid)
	}
	// Single-row relations satisfy everything.
	one := relation.FromCodes(nil, [][]int32{{3}}, nil, relation.NullEqNull)
	if got := New(one).EmptyLHS(bitset.Full(1), nil); !got.Equal(bitset.Full(1)) {
		t.Errorf("single row: %v", got)
	}
}

// TestAgainstBruteForce: the surviving RHS of a validation must be exactly
// the attributes for which the FD holds.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		r := dataset.Random(rng, 4+rng.Intn(40), 2+rng.Intn(5), 1+rng.Intn(4))
		n := r.NumCols()
		v := New(r)
		lhs := bitset.New(n)
		for a := 0; a < n; a++ {
			if rng.Intn(2) == 0 {
				lhs.Add(a)
			}
		}
		if lhs.IsEmpty() {
			lhs.Add(0)
		}
		rhs := bitset.Full(n)
		rhs.DifferenceWith(lhs)
		if rhs.IsEmpty() {
			continue
		}
		start := lhs.Min()
		p, attrs := single(r, start)
		got := v.FD(lhs, rhs, p, attrs, nil)
		for a := rhs.Next(0); a >= 0; a = rhs.Next(a + 1) {
			want := brute.HoldsSet(r, lhs, a)
			if got.Contains(a) != want {
				t.Fatalf("trial %d: %v -> %d: validator=%v brute=%v", trial, lhs, a, got.Contains(a), want)
			}
		}
	}
}

func TestSnapshotSince(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{{0, 0}, {1, 2}}, nil, relation.NullEqNull)
	v := New(r)
	snap := v.Snapshot()
	p, attrs := single(r, 0)
	v.FD(bitset.FromAttrs(2, 0), bitset.FromAttrs(2, 1), p, attrs, nil)
	vals, inv := v.Since(snap)
	if vals != 1 || inv != 1 {
		t.Errorf("Since = %d/%d, want 1/1", vals, inv)
	}
}

// TestValidatorFDAllocsPerRun pins validation's scratch reuse: once warm,
// FD allocates exactly the RHS set it returns, at every LHS depth, so
// the refinement buffers, the split kernel and witness recording (whose
// witnesses the warm-up call already added) allocate nothing. The LHS
// takes weather's lowest-cardinality columns first, so its clusters
// survive several refinements before they split into singletons.
func TestValidatorFDAllocsPerRun(t *testing.T) {
	b, err := dataset.ByName("weather")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(4000, 12)
	n := r.NumCols()
	byCard := make([]int, n)
	for a := range byCard {
		byCard[a] = a
	}
	sort.SliceStable(byCard, func(i, j int) bool { return r.Cards[byCard[i]] < r.Cards[byCard[j]] })
	v := New(r)
	nonFDs := sampling.NewNonFDSet(n)
	for depth := 1; depth <= 6; depth++ {
		lhs := bitset.New(n)
		for _, a := range byCard[:depth] {
			lhs.Add(a)
		}
		rhs := bitset.Full(n)
		rhs.DifferenceWith(lhs)
		p, attrs := single(r, byCard[0])
		fd := func() { v.FD(lhs, rhs, p, attrs, nonFDs) }
		fd()
		if got := testing.AllocsPerRun(10, fd); got != 1 {
			t.Errorf("depth %d: FD allocs/run = %.0f, want 1 (the returned set)", depth, got)
		}
	}
	if v.ClustersRefined == 0 {
		t.Fatal("no cluster was refined")
	}
}
