package partition

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// testPart lays the given clusters, in order, into a partition's row
// array and offsets, for tests that need exact clusters.
func testPart(nrows int, clusters ...[]int32) *Partition {
	p := &Partition{NRows: nrows, offsets: []int32{0}}
	for _, c := range clusters {
		p.backing = append(p.backing, c...)
		p.offsets = append(p.offsets, int32(len(p.backing)))
	}
	return p
}

// clustersOf copies p's clusters out in order, for test messages.
func clustersOf(p *Partition) [][]int32 {
	out := make([][]int32, p.Card())
	for i := range out {
		out[i] = slices.Clone(p.Cluster(i))
	}
	return out
}

func TestSingleStripsSingletons(t *testing.T) {
	// codes: 0,1,0,2,1,3 -> clusters {0,2} and {1,4}; 2 and 3 stripped.
	p := Single([]int32{0, 1, 0, 2, 1, 3}, 4)
	if want := testPart(6, []int32{0, 2}, []int32{1, 4}); !p.Equal(want) {
		t.Errorf("clusters = %v, want %v", clustersOf(p), clustersOf(want))
	}
	if p.Card() != 2 || p.Size() != 4 || p.Error() != 2 {
		t.Errorf("card/size/error = %d/%d/%d", p.Card(), p.Size(), p.Error())
	}
	if p.IsUnique() {
		t.Error("IsUnique on non-key column")
	}
}

func TestSingleAllUnique(t *testing.T) {
	p := Single([]int32{0, 1, 2, 3}, 4)
	if !p.IsUnique() || p.Card() != 0 || p.Size() != 0 {
		t.Errorf("unique column: %+v", p)
	}
}

func TestSingleAllEqual(t *testing.T) {
	p := Single([]int32{0, 0, 0}, 1)
	if p.Card() != 1 || p.Size() != 3 {
		t.Errorf("constant column: card=%d size=%d", p.Card(), p.Size())
	}
}

func TestRefineSplitsClusters(t *testing.T) {
	// π over column a (all rows equal), refine by column b.
	a := []int32{0, 0, 0, 0, 0, 0}
	b := []int32{0, 1, 0, 1, 2, 2}
	pa := Single(a, 1)
	pab := Refine(pa, b, 3)
	if want := testPart(6, []int32{0, 2}, []int32{1, 3}, []int32{4, 5}); !pab.Equal(want) {
		t.Errorf("refined = %v, want %v", clustersOf(pab), clustersOf(want))
	}
}

func TestRefineDropsNewSingletons(t *testing.T) {
	a := []int32{0, 0, 0}
	b := []int32{0, 0, 1}
	pab := Refine(Single(a, 1), b, 2)
	if !pab.Equal(testPart(3, []int32{0, 1})) {
		t.Errorf("refined = %v", clustersOf(pab))
	}
}

// TestRefinerReuseAcrossCalls splits two clusters above smallCluster,
// which take the bucket path, on one Refiner: the second call's column
// outgrows the table NewRefiner sized, and neither call may see rows the
// other left in a bucket.
func TestRefinerReuseAcrossCalls(t *testing.T) {
	rf := NewRefiner(2)
	n := 2*smallCluster + 1
	cluster := make([]int32, n)
	lo, hi := make([]int32, n), make([]int32, n)
	for i := range cluster {
		cluster[i] = int32(i)
		lo[i], hi[i] = 0, 5
	}
	lo[n-1], hi[n-1] = 1, 1 // the last row splits off alone
	rows, ends := rf.Split(cluster, lo, 2, nil, nil)
	rows, ends = rf.Split(cluster, hi, 6, rows, ends)
	want := append(append([]int32(nil), cluster[:n-1]...), cluster[:n-1]...)
	if !reflect.DeepEqual(rows, want) || !reflect.DeepEqual(ends, []int32{int32(n - 1), int32(2 * (n - 1))}) {
		t.Errorf("rows = %v, ends = %v", rows, ends)
	}
	if len(rf.buckets) < 6 {
		t.Errorf("bucket table holds %d codes, want >= 6", len(rf.buckets))
	}
}

// referenceSplit groups cluster's rows by code the obvious way: groups in
// the order of their first rows, rows in cluster order, groups of one row
// dropped.
func referenceSplit(cluster, col []int32) (rows, ends []int32) {
	index := map[int32]int{}
	var groups [][]int32
	for _, row := range cluster {
		g, ok := index[col[row]]
		if !ok {
			g = len(groups)
			index[col[row]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], row)
	}
	for _, g := range groups {
		if len(g) >= 2 {
			rows = append(rows, g...)
			ends = append(ends, int32(len(rows)))
		}
	}
	return rows, ends
}

// TestSplitMatchesReference checks the split kernel against
// referenceSplit on cluster sizes on both sides of smallCluster, with
// codes all equal, all distinct and random at cardinalities from 1 to
// 20,000, on one Refiner throughout. Each call appends behind a prefix
// left by the call before, which must stay intact.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rf := NewRefiner(1)
	const nrows = 3000
	col := make([]int32, nrows)
	var rows, ends []int32
	check := func(name string, cluster []int32, card int) {
		t.Helper()
		subRows, subEnds := referenceSplit(cluster, col)
		for i := range subEnds {
			subEnds[i] += int32(len(rows))
		}
		wantRows := append(slices.Clone(rows), subRows...)
		wantEnds := append(slices.Clone(ends), subEnds...)
		rows, ends = rf.Split(cluster, col, card, rows, ends)
		if !slices.Equal(rows, wantRows) || !slices.Equal(ends, wantEnds) {
			t.Fatalf("%s: rows %v ends %v, want rows %v ends %v", name, rows, ends, wantRows, wantEnds)
		}
	}
	// Two rows with unequal codes split into nothing.
	col[0], col[1] = 0, 1
	check("two unequal", []int32{1, 0}, 2)
	if len(rows) != 0 || len(ends) != 0 {
		t.Fatalf("two unequal rows emitted rows %v ends %v", rows, ends)
	}
	for _, size := range []int{2, 3, 7, 8, 9, 16, 64, 1000} {
		for _, card := range []int{1, 2, 50, 20000} {
			for _, codes := range []string{"equal", "distinct", "random"} {
				if codes == "distinct" && size > card {
					continue
				}
				cluster := make([]int32, 0, size)
				for _, row := range rng.Perm(nrows)[:size] {
					cluster = append(cluster, int32(row))
				}
				distinct := rng.Perm(card)
				for i, row := range cluster {
					switch codes {
					case "equal":
						col[row] = int32(card - 1)
					case "distinct":
						col[row] = int32(distinct[i])
					default:
						col[row] = int32(rng.Intn(card))
					}
				}
				check(fmt.Sprintf("size %d card %d %s", size, card, codes), cluster, card)
			}
		}
	}
}

func TestForAttrsEmptySet(t *testing.T) {
	cols := [][]int32{{0, 1, 0}}
	p := ForAttrs(bitset.New(1), cols, []int{2})
	if p.Card() != 1 || p.Size() != 3 {
		t.Errorf("π_∅: card=%d size=%d", p.Card(), p.Size())
	}
	// A 1-row relation has no pair, so π_∅ is empty.
	p1 := ForAttrs(bitset.New(1), [][]int32{{0}}, []int{1})
	if p1.Card() != 0 {
		t.Errorf("π_∅ on single row: %v", clustersOf(p1))
	}
}

func TestForAttrsMultiAttr(t *testing.T) {
	// Rows: (0,0) (0,1) (0,0) (1,0) -> π_{a,b} = {{0,2}}.
	cols := [][]int32{{0, 0, 0, 1}, {0, 1, 0, 0}}
	p := ForAttrs(bitset.FromAttrs(2, 0, 1), cols, []int{2, 2})
	if !p.Equal(testPart(4, []int32{0, 2})) {
		t.Errorf("π_ab = %v", clustersOf(p))
	}
}

// TestEqualLeavesOperandsUnchanged compares a partition served from a
// cache with the same clusters built in another order: they are Equal,
// and neither operand's clusters nor rows move.
func TestEqualLeavesOperandsUnchanged(t *testing.T) {
	// The columns swap the codes of the same two clusters, and Single
	// orders clusters by code: column 0 lists {2, 3, 5} first, column 1
	// lists {0, 1, 4} first.
	cols := [][]int32{{1, 1, 0, 0, 1, 0}, {0, 0, 1, 1, 0, 1}}
	cards := []int{2, 2}
	x := bitset.FromAttrs(2, 0)
	c := NewCache(1<<20, nil)
	if _, _, err := ForAttrsCached(context.Background(), c, x, cols, cards); err != nil {
		t.Fatal(err)
	}
	cached := c.Get(x)
	other := Single(cols[1], cards[1])
	if !slices.Equal(cached.backing, []int32{2, 3, 5, 0, 1, 4}) || !slices.Equal(other.backing, []int32{0, 1, 4, 2, 3, 5}) {
		t.Fatalf("fixture: cached %v, other %v", clustersOf(cached), clustersOf(other))
	}
	wantCached, wantOther := clustersOf(cached), clustersOf(other)
	if !cached.Equal(other) || !other.Equal(cached) {
		t.Fatalf("%v and %v should be Equal", wantCached, wantOther)
	}
	if got := clustersOf(cached); !reflect.DeepEqual(got, wantCached) {
		t.Errorf("Equal changed the cached operand: %v, was %v", got, wantCached)
	}
	if got := clustersOf(other); !reflect.DeepEqual(got, wantOther) {
		t.Errorf("Equal changed the other operand: %v, was %v", got, wantOther)
	}
	if again := c.Get(x); again != cached || !reflect.DeepEqual(clustersOf(again), wantCached) {
		t.Errorf("cache serves %v after Equal, want %v", clustersOf(again), wantCached)
	}
	for _, tc := range []struct {
		name string
		a, b *Partition
	}{
		{"rows", testPart(4, []int32{0, 1}, []int32{2, 3}), testPart(4, []int32{0, 2}, []int32{1, 3})},
		{"nrows", testPart(4, []int32{0, 1}), testPart(5, []int32{0, 1})},
		{"card", testPart(4, []int32{0, 1, 2, 3}), testPart(4, []int32{0, 1}, []int32{2, 3})},
		{"zero value", testPart(4, []int32{0, 1}), &Partition{NRows: 4}},
	} {
		if tc.a.Equal(tc.b) || tc.b.Equal(tc.a) {
			t.Errorf("%s: %v and %v should differ", tc.name, clustersOf(tc.a), clustersOf(tc.b))
		}
	}
}

// TestQuickErrorMonotone checks the TANE invariant: refining a partition can
// never decrease cluster count per surviving row, i.e. e(XA) <= e(X) and
// ‖π_XA‖ <= ‖π_X‖.
func TestQuickErrorMonotone(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n < 2 {
			return true
		}
		a := make([]int32, n)
		b := make([]int32, n)
		for i := 0; i < n; i++ {
			a[i] = int32(rawA[i] % 4)
			b[i] = int32(rawB[i] % 4)
		}
		pa := Single(a, 4)
		pab := Refine(pa, b, 4)
		return pab.Error() <= pa.Error() && pab.Size() <= pa.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRefineOrderIrrelevant checks π_X is independent of the attribute
// order used to build it.
func TestQuickRefineOrderIrrelevant(t *testing.T) {
	f := func(rawA, rawB, rawC []uint8) bool {
		n := len(rawA)
		for _, r := range [][]uint8{rawB, rawC} {
			if len(r) < n {
				n = len(r)
			}
		}
		if n < 2 {
			return true
		}
		cols := make([][]int32, 3)
		for c, raw := range [][]uint8{rawA, rawB, rawC} {
			cols[c] = make([]int32, n)
			for i := 0; i < n; i++ {
				cols[c][i] = int32(raw[i] % 3)
			}
		}
		p1 := Refine(Refine(Single(cols[0], 3), cols[1], 3), cols[2], 3)
		p2 := Refine(Refine(Single(cols[2], 3), cols[0], 3), cols[1], 3)
		return p1.Equal(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickClusterInvariants checks the layout's invariants on every
// producer — Single, Refine and ForAttrs — and on the zero value: every
// cluster has at least 2 rows, no row appears twice, the clusters tile
// Size() in order, and all rows of a cluster share their codes on the
// partitioning columns. For Single, Size plus the stripped singletons is
// the row count.
func TestQuickClusterInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		cols := [][]int32{make([]int32, len(raw)), make([]int32, len(raw)), make([]int32, len(raw))}
		for i, v := range raw {
			cols[0][i], cols[1][i], cols[2][i] = int32(v%8), int32(v/8%4), int32(v/32%3)
		}
		cards := []int{8, 4, 3}
		single := Single(cols[0], cards[0])
		type built struct {
			p     *Partition
			attrs []int // the columns its clusters agree on
		}
		parts := []built{
			{single, []int{0}},
			{Refine(single, cols[1], cards[1]), []int{0, 1}},
			{ForAttrs(bitset.FromAttrs(3, 0, 1, 2), cols, cards), []int{0, 1, 2}},
			{&Partition{NRows: len(raw)}, nil},
		}
		for _, b := range parts {
			if !clusterInvariantsHold(b.p, cols, b.attrs) {
				return false
			}
		}
		counts := map[int32]int{}
		for _, v := range cols[0] {
			counts[v]++
		}
		singletons := 0
		for _, n := range counts {
			if n == 1 {
				singletons++
			}
		}
		return single.Size()+singletons == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// clusterInvariantsHold reports whether p's clusters have at least 2
// rows each, hold no row twice, tile Size() in order, and agree on the
// columns attrs.
func clusterInvariantsHold(p *Partition, cols [][]int32, attrs []int) bool {
	seen := map[int32]bool{}
	at := 0
	for i := range p.Card() {
		cluster := p.Cluster(i)
		if len(cluster) < 2 || !slices.Equal(cluster, p.backing[at:at+len(cluster)]) {
			return false
		}
		at += len(cluster)
		for _, row := range cluster {
			if seen[row] {
				return false
			}
			seen[row] = true
			for _, a := range attrs {
				if cols[a][row] != cols[a][cluster[0]] {
					return false
				}
			}
		}
	}
	return at == p.Size()
}
