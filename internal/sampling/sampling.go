// Package sampling extracts non-FDs (agree sets) from relations.
//
// The agree set ag(t, t') of two tuples is the set of attributes on which
// they share values; it implies the non-FD ag(t,t') ↛ R − ag(t,t').
// Row-based discovery (FDEP) computes the full negative cover from all
// tuple pairs; hybrid discovery samples promising pairs instead — tuples
// from the same cluster of a stripped partition already agree on at least
// one attribute, and the sorted-neighborhood method of Hernández and
// Stolfo picks likely-similar neighbors inside each cluster. The order
// that method sorts by ranks every row by its full code tuple; a hybrid
// run builds it once (NewRowOrder) and orders every cluster it samples
// from it, so no sample sorts code tuples.
package sampling

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// AgreeSet computes ag(r[i], r[j]) over all columns.
func AgreeSet(r *relation.Relation, i, j int, out bitset.Set) bitset.Set {
	if out == nil {
		out = bitset.New(r.NumCols())
	} else {
		out.Clear()
	}
	for c := 0; c < r.NumCols(); c++ {
		if r.Cols[c][i] == r.Cols[c][j] {
			out.Add(c)
		}
	}
	return out
}

// NonFDSet accumulates distinct non-FD LHSs (agree sets). The non-FD a set
// X represents is X ↛ R − X.
type NonFDSet struct {
	n    int
	seen map[string]struct{}
	sets []bitset.Set
	key  []byte // scratch for duplicate probes
}

// NewNonFDSet returns an empty accumulator for a schema of n attributes.
func NewNonFDSet(n int) *NonFDSet {
	return &NonFDSet{n: n, seen: make(map[string]struct{})}
}

// Add records an agree set; duplicates and the full set R (a duplicate
// tuple pair, which implies nothing) are ignored. Reports whether the set
// was new.
func (s *NonFDSet) Add(x bitset.Set) bool {
	if x.Count() == s.n {
		return false
	}
	s.key = x.AppendKey(s.key[:0])
	if _, ok := s.seen[string(s.key)]; ok {
		return false
	}
	s.seen[string(s.key)] = struct{}{}
	s.sets = append(s.sets, x.Clone())
	return true
}

// Len returns the number of distinct non-FDs collected.
func (s *NonFDSet) Len() int { return len(s.sets) }

// Sets returns the collected agree sets. The slice is owned by the set;
// callers sort or iterate but must not append.
func (s *NonFDSet) Sets() []bitset.Set { return s.sets }

// SortDescending orders the agree sets by descending size (ties broken
// lexicographically), the order FDEP2 and DHyFD apply non-FDs in: larger
// LHSs first eliminate redundant inductions (Section IV-H).
func (s *NonFDSet) SortDescending() {
	sort.Slice(s.sets, func(i, j int) bool {
		return bitset.CompareSizeLex(s.sets[i], s.sets[j]) < 0
	})
}

// NonRedundant reduces the collection to a non-redundant cover of non-FDs,
// the preprocessing FDEP1 performs. An agree set X implies the non-FDs
// X ↛ A for every A ∉ X, so X is redundant exactly when, for every A ∉ X,
// some superset X' ⊋ X in the collection also excludes A — dropping X then
// loses no non-FD. Note this is weaker than keeping only maximal sets:
// a non-maximal X stays whenever it is the maximal witness for some
// attribute. The result is sorted descending.
func (s *NonFDSet) NonRedundant() {
	s.SortDescending()
	sizes := make([]int, len(s.sets))
	for i, x := range s.sets {
		sizes[i] = x.Count()
	}
	kept := s.sets[:0:0]
	for i, x := range s.sets {
		// Union of R−X' over supersets X' ⊋ X. A strict superset is
		// strictly larger, and sizes are non-increasing, so only the
		// prefix of strictly-larger earlier entries can qualify —
		// equal-size entries are distinct sets, never strict supersets
		// (TestNonRedundantEqualSizeTies pins that reasoning).
		coveredOutside := bitset.New(s.n)
		for j := 0; j < i && sizes[j] > sizes[i]; j++ {
			sup := s.sets[j]
			if !x.IsSubsetOf(sup) {
				continue
			}
			comp := bitset.Full(s.n)
			comp.DifferenceWith(sup)
			coveredOutside.UnionWith(comp)
		}
		outside := bitset.Full(s.n)
		outside.DifferenceWith(x)
		if !outside.IsSubsetOf(coveredOutside) {
			kept = append(kept, x)
		}
	}
	s.sets = kept
	s.seen = nil // no further Adds expected
}

// RowOrder ranks the rows of one relation by their full code tuple,
// compared column by column, with ties broken by row: the order the
// sorted-neighborhood method sorts every cluster in. A hybrid run builds
// it once, before its first sample, and every sample of the run orders
// its clusters from it.
type RowOrder struct {
	rank []int32 // rank[row] is row's position in the order
	rows []int32 // rows[k] is the row at position k
}

// NewRowOrder ranks every row of r with one stable counting sort per
// column, last column first, in O(rows × cols + Σ cards): codes lie in
// [0, card), and starting from row order makes row the final tie-break.
// A column of cardinality 1 ties every row and is skipped.
func NewRowOrder(r *relation.Relation) *RowOrder {
	n := r.NumRows()
	rows, next := make([]int32, n), make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	var starts []int32
	for c := r.NumCols() - 1; c >= 0; c-- {
		card := r.Cards[c]
		if card < 2 {
			continue
		}
		if cap(starts) < card {
			starts = make([]int32, card)
		}
		starts = starts[:card]
		clear(starts)
		col := r.Cols[c]
		for _, v := range col {
			starts[v]++
		}
		at := int32(0)
		for v, k := range starts {
			starts[v] = at
			at += k
		}
		for _, row := range rows {
			v := col[row]
			next[starts[v]] = row
			starts[v]++
		}
		rows, next = next, rows
	}
	rank := next
	for k, row := range rows {
		rank[row] = int32(k)
	}
	return &RowOrder{rank: rank, rows: rows}
}

// sampleClusters is the sorted-neighborhood kernel: rows of each cluster
// of p are put in order's order and each row is compared to its neighbor
// at the given window distance (>= 1). Agree sets accumulate into dst,
// and the number of comparisons is returned. Each item of
// ClusterNeighborSample runs it over one whole partition.
func sampleClusters(r *relation.Relation, order *RowOrder, p *partition.Partition, distance int, dst *NonFDSet) (comparisons int) {
	longest := 0
	for i := range p.Card() {
		longest = max(longest, len(p.Cluster(i)))
	}
	if longest <= distance {
		return 0
	}
	buf := bitset.New(r.NumCols())
	sorted := make([]int32, longest)
	for i := range p.Card() {
		cluster := p.Cluster(i)
		if len(cluster) <= distance {
			continue
		}
		order.sort(cluster, sorted[:len(cluster)])
		for i := 0; i+distance < len(cluster); i++ {
			comparisons++
			dst.Add(AgreeSet(r, int(sorted[i]), int(sorted[i+distance]), buf))
		}
	}
	return comparisons
}

// sort writes the rows of cluster to dst, which has the cluster's length,
// in the order's order: it sorts the rows' ranks and maps them back.
func (o *RowOrder) sort(cluster, dst []int32) {
	for i, row := range cluster {
		dst[i] = o.rank[row]
	}
	slices.Sort(dst)
	for i, k := range dst {
		dst[i] = o.rows[k]
	}
}
