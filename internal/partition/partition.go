// Package partition implements stripped partitions, the workhorse data
// structure of column-based FD discovery.
//
// The stripped partition π_X of a relation r groups the rows of r into
// X-equivalence classes and drops the singleton classes. Two measures
// matter: |π| (number of clusters) and ‖π‖ (total rows inside clusters).
// An FD X → A holds iff refining π_X by A splits no cluster, which is
// equivalent to the TANE error test e(X) = e(XA) with e(X) = ‖π_X‖ − |π_X|.
//
// The package provides the two partition computations the paper's
// algorithms need, each as a serial kernel:
//
//   - Single: build π_A for one attribute from dictionary codes,
//   - Refine / RefineClusterInto: dynamic refinement π_X ⇒ π_XA
//     one cluster at a time (Algorithm 5), used by the DDM, by FD
//     validation and by TANE's level joins: the product of two parents
//     that differ only in their last attribute is either parent refined
//     by the other's last attribute.
//
// A run's parallel passes reach them through entry points that take the
// run's engine.Pool and fan out over the independent items the call
// already has: Singles (the PLI bootstrap) runs one Single per column,
// RefineBatch one job per item and ForGroups one walk per LHS group of
// an FD list (post-run verification, ranking). No kernel cuts one
// partition into parts: ForAttrsCached, the prefix-chain walk, takes no
// pool and refines serially on its caller's goroutine, as every item of
// a fan-out does. Serial is the one-worker case, not a second API. The
// context-free ForAttrs and Refine stay for callers that hold no run
// context (the public check API, ranking without a cache, TANE's
// minimality check).
//
// Partitions produced by Single and Refine are in compact form: all
// cluster rows live in one backing array and Clusters are zero-copy
// views into it, so a partition costs three allocations regardless of
// its cluster count. The one-shot refine entry points borrow their
// Refiner from a package pool, so its bucket table outlives the call.
// Cache (cache.go) keeps refined partitions alive across candidate
// evaluations under an LRU byte bound.
package partition

import (
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/faults"
)

// Partition is a stripped partition: clusters of row indexes, each of size
// at least two. The zero value is the empty partition.
type Partition struct {
	// Clusters holds row-index clusters, each with len >= 2. In compact
	// form every cluster is a zero-copy view into one backing array.
	Clusters [][]int32
	// NRows is the number of rows of the underlying relation.
	NRows int

	// backing and offsets are the compact form: cluster i is
	// backing[offsets[i]:offsets[i+1]] and Clusters aliases those ranges.
	// Nil for partitions assembled cluster by cluster.
	backing []int32
	offsets []int32
}

// IsCompact reports whether the partition is in compact form: one backing
// array holding every cluster row, Clusters aliasing it.
func (p *Partition) IsCompact() bool { return p.offsets != nil }

// setCompact installs backing/offsets and builds the zero-copy cluster
// views. offsets must have one more entry than there are clusters, with
// offsets[0] == 0 and offsets[len-1] == len(backing).
func (p *Partition) setCompact(backing, offsets []int32) {
	p.backing, p.offsets = backing, offsets
	p.Clusters = make([][]int32, len(offsets)-1)
	for i := range p.Clusters {
		p.Clusters[i] = backing[offsets[i]:offsets[i+1]:offsets[i+1]]
	}
}

// Card returns |π|, the number of clusters.
func (p *Partition) Card() int { return len(p.Clusters) }

// Size returns ‖π‖, the total number of rows inside clusters.
func (p *Partition) Size() int {
	if p.backing != nil {
		return len(p.backing)
	}
	n := 0
	for _, c := range p.Clusters {
		n += len(c)
	}
	return n
}

// Error returns e(π) = ‖π‖ − |π|, the minimum number of rows to remove so
// that the partitioning attributes form a key.
func (p *Partition) Error() int { return p.Size() - p.Card() }

// IsUnique reports whether the partition has no cluster, i.e. the
// partitioning attribute set is a key (all classes are singletons).
func (p *Partition) IsUnique() bool { return len(p.Clusters) == 0 }

// Clone returns a deep copy (in compact form).
func (p *Partition) Clone() *Partition {
	c := &Partition{NRows: p.NRows}
	backing := make([]int32, 0, p.Size())
	offsets := make([]int32, 1, len(p.Clusters)+1)
	for _, cl := range p.Clusters {
		backing = append(backing, cl...)
		offsets = append(offsets, int32(len(backing)))
	}
	c.setCompact(backing, offsets)
	return c
}

// Single builds the stripped partition of one dictionary-encoded column.
// card must be at least 1 + max(col); rows with unique codes are stripped.
// The result is in compact form.
//
//fd:hotpath
func Single(col []int32, card int) *Partition {
	faults.Check(faults.PartitionBuild)
	if card < 1 {
		card = 1
	}
	counts := make([]int32, card)
	for _, v := range col {
		counts[v]++
	}
	// Lay all non-singleton clusters out in one backing array.
	starts := make([]int32, card)
	total := int32(0)
	nclusters := 0
	for v, n := range counts {
		if n >= 2 {
			starts[v] = total
			total += n
			nclusters++
		} else {
			starts[v] = -1
		}
	}
	backing := make([]int32, total)
	fill := make([]int32, card)
	for row, v := range col {
		if off := starts[v]; off >= 0 {
			backing[off+fill[v]] = int32(row)
			fill[v]++
		}
	}
	offsets := make([]int32, 1, nclusters+1)
	for v := 0; v < card; v++ {
		if off := starts[v]; off >= 0 {
			offsets = append(offsets, off+counts[v])
		}
	}
	p := &Partition{NRows: len(col)}
	p.setCompact(backing, offsets)
	return p
}

// Refiner refines partitions one cluster at a time (Algorithm 5 of the
// paper). It keeps the sets-array, touched-id list and offsets scratch
// between calls so that refining many clusters allocates nothing after
// warm-up.
type Refiner struct {
	buckets [][]int32 // indexed by dictionary code
	touched []int32   // codes used by the current cluster
	offsets []int32   // scratch for Refine's output offsets, copied out exact-size
}

// NewRefiner returns a refiner able to handle columns with cardinality up
// to maxCard.
func NewRefiner(maxCard int) *Refiner {
	return &Refiner{buckets: make([][]int32, maxCard)}
}

func (rf *Refiner) grow(card int) {
	if card > len(rf.buckets) {
		nb := make([][]int32, card)
		copy(nb, rf.buckets)
		rf.buckets = nb
	}
}

// RefineClusterInto splits one cluster by the codes of column col with
// caller-owned backing storage: the rows of each sub-cluster of size >= 2
// are appended to arena and dst receives views into it, so a warm caller
// pays zero allocations per cluster. If arena grows mid-call, views
// appended earlier keep pointing into the previous backing — their
// contents are complete and never mutated, so they stay valid. Returns
// the (possibly grown) arena and dst.
//
//fd:hotpath
func (rf *Refiner) RefineClusterInto(cluster []int32, col []int32, card int, arena []int32, dst [][]int32) ([]int32, [][]int32) {
	rf.grow(card)
	for _, row := range cluster {
		v := col[row]
		if len(rf.buckets[v]) == 0 {
			rf.touched = append(rf.touched, v)
		}
		rf.buckets[v] = append(rf.buckets[v], row)
	}
	for _, v := range rf.touched {
		if b := rf.buckets[v]; len(b) >= 2 {
			at := len(arena)
			arena = append(arena, b...)
			dst = append(dst, arena[at:len(arena):len(arena)])
		}
		rf.buckets[v] = rf.buckets[v][:0]
	}
	rf.touched = rf.touched[:0]
	return arena, dst
}

// refine computes π_XA from π_X by splitting every cluster on column col.
// The result is in compact form: sub-clusters are laid into one backing
// array instead of being copied out one allocation each.
//
//fd:hotpath
func (rf *Refiner) refine(p *Partition, col []int32, card int) *Partition {
	rf.grow(card)
	out := &Partition{NRows: p.NRows}
	backing := make([]int32, 0, p.Size())
	rf.offsets = append(rf.offsets[:0], 0)
	backing, rf.offsets = rf.refineRange(p.Clusters, col, backing, rf.offsets)
	// The offsets scratch is reused next call; the partition keeps an
	// exact-size copy, so per-call growth amortizes away entirely.
	out.setCompact(backing, append([]int32(nil), rf.offsets...))
	return out
}

// refineRange is refine's kernel: it splits each cluster by the codes of
// col, appending surviving sub-cluster rows to backing and each
// sub-cluster's end position to ends (which starts with a leading 0), and
// returns the grown slices. RefineBatch items run it on pool workers, one
// Refiner each, so it writes only its parameters and receiver scratch.
// The caller owns the card-sized scratch (rf.grow). It and
// RefineClusterInto stay two loops: building either on the other cost
// 17–31% in the phase that runs it (see DESIGN.md).
//
//fd:hotpath
//fd:shardkernel
func (rf *Refiner) refineRange(clusters [][]int32, col []int32, backing, ends []int32) ([]int32, []int32) {
	for _, cluster := range clusters {
		for _, row := range cluster {
			v := col[row]
			if len(rf.buckets[v]) == 0 {
				rf.touched = append(rf.touched, v)
			}
			rf.buckets[v] = append(rf.buckets[v], row)
		}
		for _, v := range rf.touched {
			if len(rf.buckets[v]) >= 2 {
				backing = append(backing, rf.buckets[v]...)
				ends = append(ends, int32(len(backing)))
			}
			rf.buckets[v] = rf.buckets[v][:0]
		}
		rf.touched = rf.touched[:0]
	}
	return backing, ends
}

// refiners keeps Refiner scratch warm between one-shot refine calls, so
// a call pays for its output only, not for a card-sized bucket table
// and buckets grown from nil. A Refiner goes back only on a normal
// return, never from a defer: a call that panicked mid-kernel leaves
// its buckets half filled, and dropping the Refiner keeps them from the
// next caller. Outputs copy rows and offsets out of the scratch, so no
// partition aliases pooled storage.
var refiners = sync.Pool{New: func() any { return new(Refiner) }}

// getRefiner borrows a Refiner from the pool; its scratch is clean and
// grows on demand.
func getRefiner() *Refiner { return refiners.Get().(*Refiner) }

// Refine computes π_XA from π_X by splitting every cluster on column col,
// on pooled Refiner scratch.
func Refine(p *Partition, col []int32, card int) *Partition {
	rf := getRefiner()
	out := rf.refine(p, col, card)
	refiners.Put(rf)
	return out
}

// Members marks every row lying inside a cluster of p into dst, a row
// bitmap, and returns it (cleared and grown as needed, so one scratch
// bitmap serves many partitions). The result is the characteristic
// function of ‖π‖: ranking counts null occurrences per attribute with one
// word-And/popcount against it, and marks redundant occurrences with one
// word-Or of it — per partition, not per row.
//
//fd:hotpath
func (p *Partition) Members(dst bitset.Bitmap) bitset.Bitmap {
	words := bitset.WordsFor(p.NRows)
	if cap(dst) < words {
		dst = make(bitset.Bitmap, words)
	} else {
		dst = dst[:words]
		dst.Clear()
	}
	if p.backing != nil {
		for _, row := range p.backing {
			dst.Set(int(row))
		}
		return dst
	}
	for _, cluster := range p.Clusters {
		for _, row := range cluster {
			dst.Set(int(row))
		}
	}
	return dst
}

// orderForRefine sorts attrs so that the attribute whose single-column
// partition has the smallest error e(π_A) comes first. With exact
// active-domain cardinalities (relation.Relation guarantees them),
// e(π_A) = ‖π_A‖ − |π_A| = nrows − card(A): every one of the card(A)
// value classes loses exactly one representative. Smallest error means
// the cheapest refinement start — the fewest rows survive inside
// clusters. Ties break on the attribute index, keeping the order
// deterministic.
func orderForRefine(attrs []int, cards []int, nrows int) {
	sort.Slice(attrs, func(i, j int) bool {
		ei, ej := nrows-cards[attrs[i]], nrows-cards[attrs[j]]
		if ei != ej {
			return ei < ej
		}
		return attrs[i] < attrs[j]
	})
}

// ForAttrs computes π_X for an attribute set by refining the
// smallest-error single-attribute partition (e(π_A) = nrows − card(A))
// with the remaining attributes. cols and cards describe the full
// relation. Returns the full-relation partition (one cluster of all rows)
// when X is empty.
func ForAttrs(x bitset.Set, cols [][]int32, cards []int) *Partition {
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	attrs := x.Attrs()
	if len(attrs) == 0 {
		return fullPartition(nrows)
	}
	orderForRefine(attrs, cards, nrows)
	p := Single(cols[attrs[0]], cards[attrs[0]])
	rf := getRefiner()
	for _, a := range attrs[1:] {
		if len(p.Clusters) == 0 {
			break
		}
		p = rf.refine(p, cols[a], cards[a])
	}
	refiners.Put(rf)
	return p
}

// fullPartition returns π_∅: one cluster of all rows (empty under 2 rows).
func fullPartition(nrows int) *Partition {
	if nrows < 2 {
		return &Partition{NRows: nrows}
	}
	all := make([]int32, nrows)
	for i := range all {
		all[i] = int32(i)
	}
	p := &Partition{NRows: nrows}
	p.setCompact(all, []int32{0, int32(nrows)})
	return p
}

// SortClusters orders clusters by ascending first row, and rows within each
// cluster ascending. Useful for deterministic comparisons in tests. It
// copies compact clusters out of their shared backing first, so sorting
// never mutates a partition aliased elsewhere (a cache, another view).
func (p *Partition) SortClusters() {
	if p.backing != nil {
		clusters := make([][]int32, len(p.Clusters))
		for i, c := range p.Clusters {
			clusters[i] = append([]int32(nil), c...)
		}
		p.Clusters, p.backing, p.offsets = clusters, nil, nil
	}
	for _, c := range p.Clusters {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	sort.Slice(p.Clusters, func(i, j int) bool {
		return p.Clusters[i][0] < p.Clusters[j][0]
	})
}

// Equal reports whether two partitions contain the same clusters,
// disregarding order. Both partitions are sorted as a side effect.
func (p *Partition) Equal(o *Partition) bool {
	if p.NRows != o.NRows || len(p.Clusters) != len(o.Clusters) {
		return false
	}
	p.SortClusters()
	o.SortClusters()
	for i := range p.Clusters {
		a, b := p.Clusters[i], o.Clusters[i]
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}
