// Package sampling extracts non-FDs (agree sets) from relations.
//
// The agree set ag(t, t') of two tuples is the set of attributes on which
// they share values; it implies the non-FD ag(t,t') ↛ R − ag(t,t').
// Row-based discovery (FDEP) computes the full negative cover from all
// tuple pairs; hybrid discovery samples promising pairs instead — tuples
// from the same cluster of a stripped partition already agree on at least
// one attribute, and the sorted-neighborhood method of Hernández and
// Stolfo picks likely-similar neighbors inside each cluster.
package sampling

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
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

// sampleClusters is the sorted-neighborhood kernel: rows of each cluster
// are sorted by their full code tuple and each row is compared to its
// neighbor at the given window distance (>= 1). Agree sets accumulate
// into dst, and the number of comparisons is returned. Each item of
// ClusterNeighborSample runs it over one whole partition.
func sampleClusters(r *relation.Relation, clusters [][]int32, distance int, dst *NonFDSet) (comparisons int) {
	buf := bitset.New(r.NumCols())
	for _, cluster := range clusters {
		if len(cluster) <= distance {
			continue
		}
		sorted := sortedCluster(r, cluster)
		for i := 0; i+distance < len(sorted); i++ {
			comparisons++
			a, b := int(sorted[i]), int(sorted[i+distance])
			dst.Add(AgreeSet(r, a, b, buf))
		}
	}
	return comparisons
}

// sortedCluster returns the cluster rows ordered by their code tuples so
// that similar rows become neighbors. The rows' key tuples are gathered
// once before sorting instead of striding across every column array per
// comparison: when the per-column code widths sum to at most 64 bits the
// whole tuple is bit-packed into one machine word per row — gathered
// column by column, so each column array is read once, sequentially — and
// the sort compares single integers. Wider schemas fall back to row-major
// gathered key tuples (two contiguous reads per comparison).
func sortedCluster(r *relation.Relation, cluster []int32) []int32 {
	ncols := r.NumCols()
	totalBits := 0
	for _, card := range r.Cards {
		totalBits += bits.Len(uint(max(card, 1) - 1))
	}
	if totalBits <= 64 {
		return sortedClusterPacked(r, cluster)
	}
	keys := make([]int32, len(cluster)*ncols)
	for i, row := range cluster {
		k := keys[i*ncols : (i+1)*ncols]
		for c := 0; c < ncols; c++ {
			k[c] = r.Cols[c][row]
		}
	}
	idx := make([]int32, len(cluster))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ka := keys[int(a)*ncols : (int(a)+1)*ncols]
		kb := keys[int(b)*ncols : (int(b)+1)*ncols]
		if c := slices.Compare(ka, kb); c != 0 {
			return c
		}
		return int(cluster[a]) - int(cluster[b])
	})
	sorted := make([]int32, len(cluster))
	for i, j := range idx {
		sorted[i] = cluster[j]
	}
	return sorted
}

// sortedClusterPacked is the narrow-schema fast path: codes concatenated
// at fixed per-column widths compare exactly like the lexicographic code
// tuple, so the sort key is one uint64 per row.
func sortedClusterPacked(r *relation.Relation, cluster []int32) []int32 {
	type keyed struct {
		key uint64
		row int32
	}
	ks := make([]keyed, len(cluster))
	for i, row := range cluster {
		ks[i].row = row
	}
	for c := 0; c < r.NumCols(); c++ {
		w := bits.Len(uint(max(r.Cards[c], 1) - 1))
		if w == 0 {
			continue // constant column: contributes nothing to the order
		}
		col := r.Cols[c]
		for i := range ks {
			ks[i].key = ks[i].key<<w | uint64(col[ks[i].row])
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.row) - int(b.row)
	})
	sorted := make([]int32, len(cluster))
	for i, k := range ks {
		sorted[i] = k.row
	}
	return sorted
}
