package partition

import (
	"reflect"
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

func TestRefinerReuseAcrossCalls(t *testing.T) {
	rf := NewRefiner(2)
	// Grow beyond initial capacity on second call.
	var arena []int32
	var dst [][]int32
	arena, dst = rf.RefineClusterInto([]int32{0, 1, 2}, []int32{0, 0, 1}, 2, arena, dst)
	_, dst = rf.RefineClusterInto([]int32{0, 1, 2}, []int32{5, 5, 1}, 6, arena, dst)
	if len(dst) != 2 {
		t.Fatalf("dst = %v", dst)
	}
	if !reflect.DeepEqual(dst[0], []int32{0, 1}) || !reflect.DeepEqual(dst[1], []int32{0, 1}) {
		t.Errorf("clusters = %v", dst)
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
