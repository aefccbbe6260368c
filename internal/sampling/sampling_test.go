package sampling

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/relation"
)

func rel(t *testing.T, rows [][]string) *relation.Relation {
	t.Helper()
	r, err := relation.FromRows(nil, rows, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAgreeSet(t *testing.T) {
	r := rel(t, [][]string{
		{"1", "x", "red"},
		{"1", "y", "red"},
		{"2", "y", "red"},
	})
	if got := AgreeSet(r, 0, 1, nil); !got.Equal(bitset.FromAttrs(3, 0, 2)) {
		t.Errorf("ag(0,1) = %v", got)
	}
	if got := AgreeSet(r, 1, 2, nil); !got.Equal(bitset.FromAttrs(3, 1, 2)) {
		t.Errorf("ag(1,2) = %v", got)
	}
	if got := AgreeSet(r, 0, 2, nil); !got.Equal(bitset.FromAttrs(3, 2)) {
		t.Errorf("ag(0,2) = %v", got)
	}
	// Reuses the buffer.
	buf := bitset.New(3)
	got := AgreeSet(r, 0, 1, buf)
	if &got[0] != &buf[0] {
		t.Error("buffer not reused")
	}
}

func TestNonFDSetDedupAndFull(t *testing.T) {
	s := NewNonFDSet(3)
	if !s.Add(bitset.FromAttrs(3, 0)) {
		t.Error("first add should be new")
	}
	if s.Add(bitset.FromAttrs(3, 0)) {
		t.Error("duplicate add should be ignored")
	}
	if s.Add(bitset.Full(3)) {
		t.Error("full agree set implies nothing and should be ignored")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestNegativeCover(t *testing.T) {
	// 3 rows: pairs (0,1) agree on {0,2}, (1,2) on {1,2}, (0,2) on {2}.
	r := rel(t, [][]string{
		{"1", "x", "red"},
		{"1", "y", "red"},
		{"2", "y", "red"},
	})
	s, err := negativeCover(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := map[string]bool{
		bitset.FromAttrs(3, 0, 2).String(): true,
		bitset.FromAttrs(3, 1, 2).String(): true,
		bitset.FromAttrs(3, 2).String():    true,
	}
	for _, x := range s.Sets() {
		if !want[x.String()] {
			t.Errorf("unexpected agree set %v", x)
		}
	}
}

func TestNonRedundant(t *testing.T) {
	s := NewNonFDSet(4)
	s.Add(bitset.FromAttrs(4, 0))
	s.Add(bitset.FromAttrs(4, 0, 2))
	s.Add(bitset.FromAttrs(4, 1))
	s.Add(bitset.FromAttrs(4, 0, 2, 3))
	s.NonRedundant()
	// {0} is redundant: its witnesses (0 ↛ 1,2,3) are all covered —
	// 1 by {0,2,3}, 2 by nothing smaller... 2 ∉ {0}, and {0,2} ⊋ {0} has
	// 2 ∈ it, but {0,2,3} covers 1 only. Walk it through: outside({0}) =
	// {1,2,3}; supersets {0,2} covers {1,3}, {0,2,3} covers {1}; union
	// {1,3} ≠ {1,2,3}, so {0} survives via witness 0 ↛ 2.
	// {0,2} is redundant: outside = {1,3}, superset {0,2,3} covers {1};
	// {1,3} ⊄ {1}, so {0,2} also survives via 0,2 ↛ 3.
	got := map[string]bool{}
	for _, x := range s.Sets() {
		got[x.String()] = true
	}
	want := []string{
		bitset.FromAttrs(4, 0).String(),
		bitset.FromAttrs(4, 0, 2).String(),
		bitset.FromAttrs(4, 1).String(),
		bitset.FromAttrs(4, 0, 2, 3).String(),
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s in %v", w, got)
		}
	}
}

func TestNonRedundantDropsCovered(t *testing.T) {
	// {0} with supersets {0,1} and {0,2}: outside({0}) = {1,2};
	// {0,1} covers {2}, {0,2} covers {1} — union {1,2} ⊇ outside, so {0}
	// is redundant and must be dropped.
	s := NewNonFDSet(3)
	s.Add(bitset.FromAttrs(3, 0))
	s.Add(bitset.FromAttrs(3, 0, 1))
	s.Add(bitset.FromAttrs(3, 0, 2))
	s.NonRedundant()
	if s.Len() != 2 {
		t.Fatalf("Len = %d: %v", s.Len(), s.Sets())
	}
	for _, x := range s.Sets() {
		if x.Count() != 2 {
			t.Errorf("kept %v", x)
		}
	}
}

func TestNonRedundantEqualSizeTies(t *testing.T) {
	// Equal-size sets can never be strict supersets of each other, so the
	// bounded inner scan (earlier, strictly-larger entries only) must not
	// let one equal-size set "cover" another. With only size-2 sets every
	// entry is its own maximal witness and all must survive.
	s := NewNonFDSet(4)
	s.Add(bitset.FromAttrs(4, 0, 1))
	s.Add(bitset.FromAttrs(4, 0, 2))
	s.Add(bitset.FromAttrs(4, 1, 2))
	s.Add(bitset.FromAttrs(4, 2, 3))
	s.NonRedundant()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want all 4 equal-size sets kept: %v", s.Len(), s.Sets())
	}
}

func TestNonRedundantMatchesFullScan(t *testing.T) {
	// Cross-check the bounded scan against the definitional full scan on a
	// randomized collection.
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	const n = 12
	s := NewNonFDSet(n)
	for k := 0; k < 200; k++ {
		x := bitset.New(n)
		for b := 0; b < 1+next(n-1); b++ {
			x.Add(next(n))
		}
		s.Add(x)
	}
	// Definitional full scan over all pairs.
	ref := append([]bitset.Set(nil), s.Sets()...)
	SortSetsDescending(ref)
	var want []string
	for i, x := range ref {
		covered := bitset.New(n)
		for j, sup := range ref {
			if j == i || !x.IsSubsetOf(sup) || x.Count() == sup.Count() {
				continue
			}
			comp := bitset.Full(n)
			comp.DifferenceWith(sup)
			covered.UnionWith(comp)
		}
		outside := bitset.Full(n)
		outside.DifferenceWith(x)
		if !outside.IsSubsetOf(covered) {
			want = append(want, x.String())
		}
	}
	s.NonRedundant()
	var got []string
	for _, x := range s.Sets() {
		got = append(got, x.String())
	}
	if len(got) != len(want) {
		t.Fatalf("kept %d sets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("set %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSortDescending(t *testing.T) {
	s := NewNonFDSet(4)
	s.Add(bitset.FromAttrs(4, 1))
	s.Add(bitset.FromAttrs(4, 0, 2, 3))
	s.Add(bitset.FromAttrs(4, 0, 2))
	s.SortDescending()
	sizes := []int{}
	for _, x := range s.Sets() {
		sizes = append(sizes, x.Count())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("not descending: %v", sizes)
		}
	}
}

func TestClusterNeighborSample(t *testing.T) {
	// Column 0 clusters rows {0,1,2} (all "1"); rows 3 unique.
	r := rel(t, [][]string{
		{"1", "x", "red"},
		{"1", "y", "red"},
		{"1", "y", "blue"},
		{"2", "z", "blue"},
	})
	p := partition.Single(r.Cols[0], r.Cards[0])
	s := NewNonFDSet(3)
	newN, comps := ClusterNeighborSample(r, p, 1, s)
	if comps != 2 {
		t.Errorf("comparisons = %d, want 2 (cluster of 3 rows, window 1)", comps)
	}
	if newN != s.Len() || newN == 0 {
		t.Errorf("newNonFDs = %d, Len = %d", newN, s.Len())
	}
	// Every sampled agree set must contain attribute 0 (the cluster column).
	for _, x := range s.Sets() {
		if !x.Contains(0) {
			t.Errorf("agree set %v from cluster of column 0 must contain 0", x)
		}
	}
	// Window distance larger than cluster yields nothing.
	s2 := NewNonFDSet(3)
	if n, _ := ClusterNeighborSample(r, p, 5, s2); n != 0 {
		t.Errorf("oversized window sampled %d", n)
	}
}

func TestInitialSampleCoversAllColumns(t *testing.T) {
	r := rel(t, [][]string{
		{"1", "x"},
		{"1", "y"},
		{"2", "x"},
		{"2", "y"},
	})
	singles := make([]*partition.Partition, r.NumCols())
	for c := range singles {
		singles[c] = partition.Single(r.Cols[c], r.Cards[c])
	}
	s := InitialSample(r, singles)
	if s.Len() == 0 {
		t.Fatal("initial sample found nothing")
	}
	// Agree sets {0} (rows 0,1) and {1} (rows 0,2 or 1,3) must both appear.
	found0, found1 := false, false
	for _, x := range s.Sets() {
		if x.Equal(bitset.FromAttrs(2, 0)) {
			found0 = true
		}
		if x.Equal(bitset.FromAttrs(2, 1)) {
			found1 = true
		}
	}
	if !found0 || !found1 {
		t.Errorf("expected both singleton agree sets, got %v", s.Sets())
	}
}

// referenceSortedCluster is the specification sortedCluster must match: an
// in-place comparator sort over the full code tuples, ties broken by row id.
func referenceSortedCluster(r *relation.Relation, cluster []int32) []int32 {
	sorted := append([]int32(nil), cluster...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for c := 0; c < r.NumCols(); c++ {
			if va, vb := r.Cols[c][a], r.Cols[c][b]; va != vb {
				return va < vb
			}
		}
		return a < b
	})
	return sorted
}

// TestSortedClusterMatchesReference exercises both sortedCluster paths —
// the packed single-word fast path (narrow codes) and the gathered-tuple
// fallback (wide codes) — against the reference comparator sort, including
// duplicate rows (tie-break by row id) and unsorted cluster input.
func TestSortedClusterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cols, card int
	}{
		{"packed", 20, 8},     // 20 × 3 bits = 60 ≤ 64
		{"fallback", 12, 900}, // 12 × 10 bits = 120 > 64
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			r := dataset.Random(rng, 400, tc.cols, tc.card)
			// Duplicate some rows so tuple ties exist.
			for c := range r.Cols {
				copy(r.Cols[c][200:220], r.Cols[c][100:120])
			}
			cluster := make([]int32, 0, 300)
			for i := 0; i < 300; i++ {
				cluster = append(cluster, int32(rng.Intn(r.NumRows())))
			}
			got := sortedCluster(r, cluster)
			want := referenceSortedCluster(r, cluster)
			if !slices.Equal(got, want) {
				t.Fatalf("sortedCluster diverges from reference\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}
