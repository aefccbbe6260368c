package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestSingleStripsSingletons(t *testing.T) {
	// codes: 0,1,0,2,1,3 -> clusters {0,2} and {1,4}; 2 and 3 stripped.
	p := Single([]int32{0, 1, 0, 2, 1, 3}, 4)
	p.SortClusters()
	want := [][]int32{{0, 2}, {1, 4}}
	if !reflect.DeepEqual(p.Clusters, want) {
		t.Errorf("clusters = %v, want %v", p.Clusters, want)
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
	pab.SortClusters()
	want := [][]int32{{0, 2}, {1, 3}, {4, 5}}
	if !reflect.DeepEqual(pab.Clusters, want) {
		t.Errorf("refined = %v, want %v", pab.Clusters, want)
	}
}

func TestRefineDropsNewSingletons(t *testing.T) {
	a := []int32{0, 0, 0}
	b := []int32{0, 0, 1}
	pab := Refine(Single(a, 1), b, 2)
	pab.SortClusters()
	if !reflect.DeepEqual(pab.Clusters, [][]int32{{0, 1}}) {
		t.Errorf("refined = %v", pab.Clusters)
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
		t.Errorf("π_∅ on single row: %v", p1.Clusters)
	}
}

func TestForAttrsMultiAttr(t *testing.T) {
	// Rows: (0,0) (0,1) (0,0) (1,0) -> π_{a,b} = {{0,2}}.
	cols := [][]int32{{0, 0, 0, 1}, {0, 1, 0, 0}}
	p := ForAttrs(bitset.FromAttrs(2, 0, 1), cols, []int{2, 2})
	p.SortClusters()
	if !reflect.DeepEqual(p.Clusters, [][]int32{{0, 2}}) {
		t.Errorf("π_ab = %v", p.Clusters)
	}
}

func TestClone(t *testing.T) {
	p := Single([]int32{0, 0, 1, 1}, 2)
	c := p.Clone()
	c.Clusters[0][0] = 99
	if p.Clusters[0][0] == 99 {
		t.Error("Clone shares backing array")
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

// TestQuickClusterInvariants checks structural invariants: every cluster has
// >= 2 rows, rows are unique, all rows within a cluster share codes.
func TestQuickClusterInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		col := make([]int32, len(raw))
		for i, v := range raw {
			col[i] = int32(v % 8)
		}
		p := Single(col, 8)
		seen := map[int32]bool{}
		for _, cluster := range p.Clusters {
			if len(cluster) < 2 {
				return false
			}
			v := col[cluster[0]]
			for _, row := range cluster {
				if col[row] != v || seen[row] {
					return false
				}
				seen[row] = true
			}
		}
		// Size + stripped singletons == rows.
		counts := map[int32]int{}
		for _, v := range col {
			counts[v]++
		}
		singletons := 0
		for _, n := range counts {
			if n == 1 {
				singletons++
			}
		}
		return p.Size()+singletons == len(col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
