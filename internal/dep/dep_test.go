package dep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitset"
)

func fd(lhs []int, rhs ...int) FD {
	return FD{LHS: bitset.FromAttrs(8, lhs...), RHS: bitset.FromAttrs(8, rhs...)}
}

func TestTrivial(t *testing.T) {
	if !fd([]int{0, 1}, 1).Trivial() {
		t.Error("RHS ⊆ LHS should be trivial")
	}
	if fd([]int{0}, 1).Trivial() {
		t.Error("proper FD is not trivial")
	}
	if !fd([]int{0}).Trivial() {
		t.Error("empty RHS is trivially contained")
	}
}

func TestStringAndFormat(t *testing.T) {
	f := fd([]int{0, 2}, 5)
	if got := f.String(); got != "{0,2} -> {5}" {
		t.Errorf("String = %q", got)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if got := f.Format(names); got != "a, c -> f" {
		t.Errorf("Format = %q", got)
	}
	if got := fd(nil, 0).Format(names); got != "∅ -> a" {
		t.Errorf("empty LHS Format = %q", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := fd([]int{0}, 1)
	c := f.Clone()
	c.LHS.Add(3)
	if f.LHS.Contains(3) {
		t.Error("Clone shares LHS")
	}
}

func TestSortOrder(t *testing.T) {
	fds := []FD{
		fd([]int{1, 2}, 0),
		fd([]int{0}, 2),
		fd(nil, 1),
		fd([]int{0}, 1),
		fd([]int{0, 3}, 1),
	}
	Sort(fds)
	var got []string
	for _, f := range fds {
		got = append(got, f.String())
	}
	want := []string{
		"{} -> {1}",
		"{0} -> {1}",
		"{0} -> {2}",
		"{0,3} -> {1}",
		"{1,2} -> {0}",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSplitRHS(t *testing.T) {
	split := SplitRHS([]FD{fd([]int{0}, 1, 2, 5)})
	if len(split) != 3 {
		t.Fatalf("split = %v", split)
	}
	for _, f := range split {
		if f.RHS.Count() != 1 {
			t.Errorf("non-singleton RHS %v", f)
		}
		if !f.LHS.Equal(bitset.FromAttrs(8, 0)) {
			t.Errorf("LHS changed: %v", f)
		}
	}
}

func TestMergeByLHS(t *testing.T) {
	merged := MergeByLHS([]FD{
		fd([]int{0}, 1),
		fd([]int{2}, 3),
		fd([]int{0}, 4),
	})
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	// Merging must not mutate inputs via shared sets.
	if !merged[0].LHS.Equal(bitset.FromAttrs(8, 0)) || !merged[0].RHS.Equal(bitset.FromAttrs(8, 1, 4)) {
		t.Errorf("merged[0] = %v", merged[0])
	}
}

func TestGroupByLHS(t *testing.T) {
	groups := GroupByLHS([]FD{
		fd([]int{2}, 3),
		fd([]int{0, 1}, 2),
		fd([]int{2}, 4),
		fd([]int{0, 1}, 5),
		fd([]int{2}, 0),
	})
	// First-seen LHS order, positions ascending within each group.
	want := []Group{
		{LHS: bitset.FromAttrs(8, 2), Idxs: []int{0, 2, 4}},
		{LHS: bitset.FromAttrs(8, 0, 1), Idxs: []int{1, 3}},
	}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("GroupByLHS = %v, want %v", groups, want)
	}
	if len(GroupByLHS(nil)) != 0 {
		t.Error("no FDs should give no groups")
	}
}

func TestCountAndAttrOccurrences(t *testing.T) {
	fds := []FD{fd([]int{0, 1}, 2), fd(nil, 3)}
	if Count(fds) != 2 {
		t.Errorf("Count = %d", Count(fds))
	}
	// (2 LHS + 1 RHS) + (0 + 1) = 4.
	if AttrOccurrences(fds) != 4 {
		t.Errorf("AttrOccurrences = %d", AttrOccurrences(fds))
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := []FD{fd([]int{0}, 1), fd([]int{2}, 3)}
	b := []FD{fd([]int{2}, 3), fd([]int{0}, 1)}
	if !Equal(a, b) {
		t.Error("order must not matter")
	}
	c := []FD{fd([]int{0}, 1), fd([]int{0}, 1)}
	if Equal(a, c) {
		t.Error("multiset mismatch not detected")
	}
	onlyA, onlyB := Diff(a, []FD{fd([]int{0}, 1)}, nil)
	if len(onlyA) != 1 || len(onlyB) != 0 {
		t.Errorf("Diff = %v / %v", onlyA, onlyB)
	}
}

func TestFormatAll(t *testing.T) {
	out := FormatAll([]FD{fd([]int{0}, 1)}, []string{"x", "y"})
	if out != "x -> y\n" {
		t.Errorf("FormatAll = %q", out)
	}
}
