package bitset

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 109, 200} {
		s := New(n)
		if !s.IsEmpty() {
			t.Errorf("New(%d) not empty", n)
		}
		if got := s.Count(); got != 0 {
			t.Errorf("New(%d).Count() = %d", n, got)
		}
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	attrs := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, a := range attrs {
		s.Add(a)
	}
	for _, a := range attrs {
		if !s.Contains(a) {
			t.Errorf("Contains(%d) = false after Add", a)
		}
	}
	if s.Count() != len(attrs) {
		t.Errorf("Count = %d, want %d", s.Count(), len(attrs))
	}
	for _, a := range []int{2, 62, 66, 126, 200} {
		if s.Contains(a) {
			t.Errorf("Contains(%d) = true, never added", a)
		}
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if s.Count() != len(attrs)-1 {
		t.Errorf("Count after remove = %d", s.Count())
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 109} {
		f := Full(n)
		if f.Count() != n {
			t.Errorf("Full(%d).Count() = %d", n, f.Count())
		}
		for a := 0; a < n; a++ {
			if !f.Contains(a) {
				t.Errorf("Full(%d) missing %d", n, a)
			}
		}
		if f.Contains(n) {
			t.Errorf("Full(%d) contains %d", n, n)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromAttrs(70, 1, 3, 64, 69)
	b := FromAttrs(70, 3, 5, 64)

	if got := a.Union(b).Attrs(); !reflect.DeepEqual(got, []int{1, 3, 5, 64, 69}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Attrs(); !reflect.DeepEqual(got, []int{3, 64}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Difference(b).Attrs(); !reflect.DeepEqual(got, []int{1, 69}) {
		t.Errorf("Difference = %v", got)
	}
	// Operands must be unchanged.
	if !a.Equal(FromAttrs(70, 1, 3, 64, 69)) || !b.Equal(FromAttrs(70, 3, 5, 64)) {
		t.Error("non-destructive ops mutated operand")
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	a := FromAttrs(70, 1, 3)
	b := FromAttrs(70, 1, 3, 64)
	if !a.IsSubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.IsSubsetOf(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !a.IsSubsetOf(a) {
		t.Error("a ⊆ a expected")
	}
	if !New(70).IsSubsetOf(a) {
		t.Error("∅ ⊆ a expected")
	}
	if !a.Intersects(b) {
		t.Error("Intersects expected")
	}
	if a.Intersects(FromAttrs(70, 2, 65)) {
		t.Error("Intersects unexpected")
	}
	if New(70).Intersects(a) {
		t.Error("∅ intersects nothing")
	}
}

func TestRaggedWidthEqualSubset(t *testing.T) {
	a := FromAttrs(10, 1, 3)
	b := FromAttrs(130, 1, 3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("ragged Equal failed")
	}
	if !a.IsSubsetOf(b) || !b.IsSubsetOf(a) {
		t.Error("ragged IsSubsetOf failed")
	}
	b.Add(120)
	if a.Equal(b) || b.IsSubsetOf(a) {
		t.Error("ragged inequality not detected")
	}
	if !a.IsSubsetOf(b) {
		t.Error("a ⊆ b after widening b")
	}
}

func TestNextIteration(t *testing.T) {
	attrs := []int{0, 7, 63, 64, 100, 129}
	s := FromAttrs(130, attrs...)
	var got []int
	for a := s.Next(0); a >= 0; a = s.Next(a + 1) {
		got = append(got, a)
	}
	if !reflect.DeepEqual(got, attrs) {
		t.Errorf("iteration = %v, want %v", got, attrs)
	}
	if s.Next(130) != -1 {
		t.Error("Next past end should be -1")
	}
	if New(130).Next(0) != -1 {
		t.Error("Next on empty should be -1")
	}
	if s.Next(-5) != 0 {
		t.Error("Next with negative from should clamp to 0")
	}
}

func TestMinMax(t *testing.T) {
	s := FromAttrs(130, 7, 64, 129)
	if s.Min() != 7 || s.Max() != 129 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	e := New(130)
	if e.Min() != -1 || e.Max() != -1 {
		t.Error("empty Min/Max should be -1")
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := New(100)
		for j := 0; j < 10; j++ {
			s.Add(rng.Intn(100))
		}
		k := s.Key()
		if prev, ok := seen[k]; ok && prev != s.String() {
			t.Fatalf("key collision: %s vs %s", prev, s.String())
		}
		seen[k] = s.String()
	}
}

func TestCompareLex(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1, 2}, []int{1, 3}, -1},
		{[]int{1, 3}, []int{1, 2}, 1},
		{[]int{1}, []int{1, 2}, -1},
		{[]int{1, 2}, []int{1}, 1},
		{nil, []int{0}, -1},
		{nil, nil, 0},
	}
	for _, c := range cases {
		a, b := FromAttrs(70, c.a...), FromAttrs(70, c.b...)
		if got := CompareLex(a, b); got != c.want {
			t.Errorf("CompareLex(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareSizeLexSortsDescendingBySize(t *testing.T) {
	sets := []Set{
		FromAttrs(70, 1),
		FromAttrs(70, 0, 1, 2),
		FromAttrs(70, 4, 5),
		FromAttrs(70, 0, 3),
	}
	sort.Slice(sets, func(i, j int) bool { return CompareSizeLex(sets[i], sets[j]) < 0 })
	var sizes []int
	for _, s := range sets {
		sizes = append(sizes, s.Count())
	}
	if !reflect.DeepEqual(sizes, []int{3, 2, 2, 1}) {
		t.Errorf("sizes after sort = %v", sizes)
	}
	// Ties broken lexicographically: {0,3} before {4,5}.
	if !sets[1].Equal(FromAttrs(70, 0, 3)) {
		t.Errorf("tie-break wrong: %v", sets[1])
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromAttrs(70, 1, 2, 64)
	a.UnionWith(FromAttrs(70, 3))
	if !a.Equal(FromAttrs(70, 1, 2, 3, 64)) {
		t.Errorf("UnionWith: %v", a)
	}
	a.DifferenceWith(FromAttrs(70, 2, 64))
	if !a.Equal(FromAttrs(70, 1, 3)) {
		t.Errorf("DifferenceWith: %v", a)
	}
	a.IntersectWith(FromAttrs(70, 3, 9))
	if !a.Equal(FromAttrs(70, 3)) {
		t.Errorf("IntersectWith: %v", a)
	}
	a.Clear()
	if !a.IsEmpty() {
		t.Error("Clear left attributes")
	}
}

func TestString(t *testing.T) {
	if got := FromAttrs(70, 1, 64).String(); got != "{1,64}" {
		t.Errorf("String = %q", got)
	}
	if got := New(70).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	names := []string{"id", "name", "zip"}
	if got := FromAttrs(3, 0, 2).Names(names); got != "id, zip" {
		t.Errorf("Names = %q", got)
	}
}

// randomSet builds a Set from a slice of attribute indexes mod n.
func randomSet(n int, raw []uint8) Set {
	s := New(n)
	for _, v := range raw {
		s.Add(int(v) % n)
	}
	return s
}

func TestQuickAlgebraLaws(t *testing.T) {
	const n = 100
	f := func(ra, rb, rc []uint8) bool {
		a, b, c := randomSet(n, ra), randomSet(n, rb), randomSet(n, rc)
		// De Morgan-ish containment laws and distributivity spot checks.
		if !a.Intersect(b).IsSubsetOf(a) || !a.IsSubsetOf(a.Union(b)) {
			return false
		}
		left := a.Intersect(b.Union(c))
		right := a.Intersect(b).Union(a.Intersect(c))
		if !left.Equal(right) {
			return false
		}
		if !a.Difference(b).Intersect(b).IsEmpty() {
			return false
		}
		// Union/difference rebuild.
		if !a.Difference(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		if a.IntersectsDifference(b, c) != a.Intersects(b.Difference(c)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCountMatchesAttrs(t *testing.T) {
	f := func(raw []uint8) bool {
		s := randomSet(97, raw)
		attrs := s.Attrs()
		if len(attrs) != s.Count() {
			return false
		}
		if !sort.IntsAreSorted(attrs) {
			return false
		}
		rebuilt := FromAttrs(97, attrs...)
		return rebuilt.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarshalJSON(t *testing.T) {
	b, err := json.Marshal(FromAttrs(70, 1, 3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1,3,64]" {
		t.Errorf("json = %s", b)
	}
	b, _ = json.Marshal(New(70))
	if string(b) != "[]" {
		t.Errorf("empty json = %s", b)
	}
}
