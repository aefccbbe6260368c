package brute

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

func TestHolds(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1},
		{5, 5, 6},
		{0, 1, 0},
	}, nil, relation.NullEqNull)
	if !Holds(r, 0b001, 1) {
		t.Error("col0 -> col1 should hold")
	}
	if Holds(r, 0b001, 2) {
		t.Error("col0 -> col2 should not hold")
	}
	// Empty LHS: holds iff the RHS column is constant.
	if Holds(r, 0, 0) {
		t.Error("∅ -> col0 should not hold")
	}
	one := relation.FromCodes(nil, [][]int32{{0}}, nil, relation.NullEqNull)
	if !Holds(one, 0, 0) {
		t.Error("single row satisfies everything")
	}
}

func TestHoldsSet(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1},
		{5, 5, 6},
	}, nil, relation.NullEqNull)
	if !HoldsSet(r, bitset.FromAttrs(2, 0), 1) {
		t.Error("HoldsSet disagrees with Holds")
	}
}

// TestHoldsSetWideRelation: attributes past the 32nd count like any
// other. Attribute 35 is a key, so it determines attribute 0, which the
// constant attribute 36 does not.
func TestHoldsSetWideRelation(t *testing.T) {
	const n, rows = 40, 6
	cols := make([][]int32, n)
	for c := range cols {
		cols[c] = make([]int32, rows)
	}
	for row := 0; row < rows; row++ {
		cols[0][row] = int32(row % 2)
		cols[35][row] = int32(row)
	}
	r := relation.FromCodes(nil, cols, nil, relation.NullEqNull)
	if !HoldsSet(r, bitset.FromAttrs(n, 35), 0) {
		t.Error("key attribute 35 -> 0 should hold")
	}
	if HoldsSet(r, bitset.FromAttrs(n, 36), 0) {
		t.Error("constant attribute 36 -> 0 should not hold")
	}
}

func TestMinimalFDsMinimality(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 1, 2, 3}, // key
		{0, 0, 1, 1},
		{0, 1, 1, 0},
	}, nil, relation.NullEqNull)
	fds := MinimalFDs(r)
	for i, f := range fds {
		// Every output FD must hold.
		if !HoldsSet(r, f.LHS, f.RHS.Min()) {
			t.Errorf("FD %v does not hold", f)
		}
		// No other FD's LHS may be a strict subset with the same RHS.
		for j, g := range fds {
			if i != j && g.RHS.Equal(f.RHS) && g.LHS.IsSubsetOf(f.LHS) {
				t.Errorf("%v subsumed by %v", f, g)
			}
		}
	}
}

func TestMinimalFDsPanicsOnWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for >24 columns")
		}
	}()
	cols := make([][]int32, 25)
	for i := range cols {
		cols[i] = []int32{0}
	}
	MinimalFDs(relation.FromCodes(nil, cols, nil, relation.NullEqNull))
}
