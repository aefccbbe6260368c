package sampling

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
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
	s, err := NegativeCover(context.Background(), engine.NewPool(1), r)
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
	slices.SortFunc(ref, bitset.CompareSizeLex)
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
	order := NewRowOrder(r)
	ctx, pool := context.Background(), engine.NewPool(1)
	s := NewNonFDSet(3)
	newN, comps, err := ClusterNeighborSample(ctx, pool, r, order, []*partition.Partition{p}, 1, s)
	if err != nil {
		t.Fatal(err)
	}
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
	if n, _, _ := ClusterNeighborSample(ctx, pool, r, order, []*partition.Partition{p}, 5, s2); n != 0 {
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
	// The initial sample the hybrid algorithms take: one distance-1 pass
	// over the single-attribute partitions of all columns.
	s := NewNonFDSet(r.NumCols())
	singles := make([]*partition.Partition, r.NumCols())
	for c := range singles {
		singles[c] = partition.Single(r.Cols[c], r.Cards[c])
	}
	if _, _, err := ClusterNeighborSample(context.Background(), engine.NewPool(1), r, NewRowOrder(r), singles, 1, s); err != nil {
		t.Fatal(err)
	}
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

// referenceSortedCluster is the specification a cluster's order must
// match: an in-place comparator sort over the full code tuples, ties
// broken by row id.
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

// codeBits sums the per-column code widths of r: the bits one row's code
// tuple takes packed at fixed widths.
func codeBits(r *relation.Relation) int {
	total := 0
	for _, card := range r.Cards {
		total += bits.Len(uint(max(card, 1) - 1))
	}
	return total
}

// TestRowOrderMatchesReference checks that ordering a cluster from the
// run's row order gives the reference comparator sort: on every cluster
// of every single-column partition of each benchmark shape at 300×12
// (whose packed code tuples fit one 64-bit word on some shapes and not on
// others), on a relation with duplicate rows, a constant column of
// cardinality 5 and a column of cardinality 1, and on a null ≠ null
// relation, plus each relation's rows as one cluster in reverse order.
func TestRowOrderMatchesReference(t *testing.T) {
	type named struct {
		name string
		r    *relation.Relation
	}
	var rels []named
	narrow, wide := 0, 0
	for _, b := range dataset.All() {
		r := b.Generate(300, 12)
		if codeBits(r) <= 64 {
			narrow++
		} else {
			wide++
		}
		rels = append(rels, named{b.Name, r})
	}
	if narrow == 0 || wide == 0 {
		t.Fatalf("%d shapes pack into 64 bits and %d do not; want both", narrow, wide)
	}
	rng := rand.New(rand.NewSource(91))
	dup := make([][]int32, 4)
	for c := range dup {
		dup[c] = make([]int32, 200)
	}
	for i := range dup[0] {
		dup[0][i] = int32(rng.Intn(6))
		dup[1][i] = 4 // constant, but of cardinality 5
		dup[2][i] = int32(rng.Intn(3))
		dup[3][i] = 0 // cardinality 1
		if i >= 100 && i < 120 {
			for c := range dup {
				dup[c][i] = dup[c][i-100]
			}
		}
	}
	rels = append(rels, named{"constant", relation.FromCodes(nil, dup, nil, relation.NullEqNull)})
	rows := make([][]string, 150)
	for i := range rows {
		rows[i] = make([]string, 5)
		for c := range rows[i] {
			if rng.Intn(3) > 0 {
				rows[i][c] = strconv.Itoa(rng.Intn(4))
			}
		}
	}
	nulls, err := relation.FromRows(nil, rows, relation.Options{Semantics: relation.NullNeqNull})
	if err != nil {
		t.Fatal(err)
	}
	rels = append(rels, named{"null-neq-null", nulls})

	for _, tc := range rels {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			order := NewRowOrder(r)
			var clusters [][]int32
			for c := range r.Cols {
				clusters = append(clusters, partition.Single(r.Cols[c], r.Cards[c]).Clusters...)
			}
			all := make([]int32, r.NumRows())
			for i := range all {
				all[i] = int32(len(all) - 1 - i)
			}
			clusters = append(clusters, all)
			for _, cluster := range clusters {
				got := make([]int32, len(cluster))
				order.sort(cluster, got)
				if want := referenceSortedCluster(r, cluster); !slices.Equal(got, want) {
					t.Fatalf("cluster order diverges from reference\ngot:  %v\nwant: %v", got, want)
				}
			}
		})
	}
}
