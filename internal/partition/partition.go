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
//   - Refine: dynamic refinement π_X ⇒ π_XA one cluster at a time
//     (Algorithm 5), used by the DDM and by TANE's level joins: the
//     product of two parents that differ only in their last attribute
//     is either parent refined by the other's last attribute. Its
//     per-cluster kernel, Refiner.Split, is also what FD validation
//     refines with, cluster by cluster, into buffers it owns.
//
// A run's parallel passes reach them through entry points that take the
// run's engine.Pool and fan out over the independent items the call
// already has: Singles (the PLI bootstrap) runs one Single per column,
// RefineBatch one job per item and ForGroups one walk per LHS group of
// an FD list (post-run verification, ranking). No kernel cuts one
// partition into parts: ForAttrsCached, the cached build (the smallest
// cached co-atom refined once, else a walk down the prefix chain), takes
// no pool and refines serially on its caller's goroutine, as every item
// of a fan-out does. Serial is the one-worker case, not a second API. The
// context-free ForAttrs and Refine stay for callers that hold no run
// context (the public check API, ranking without a cache, TANE's
// minimality check).
//
// A partition has one layout: every clustered row in one flat array and
// the cluster boundaries beside it, read through Card and Cluster. A
// refined partition therefore costs three allocations (the struct and
// its two arrays) whatever its cluster count, and the spill tier writes
// the two arrays as they are and reads them back into one. The one-shot
// refine entry points borrow their Refiner from a package pool, so its
// bucket table outlives the call. Cache (cache.go) keeps refined partitions alive
// across candidate evaluations under an LRU byte bound.
package partition

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/faults"
)

// Partition is a stripped partition: clusters of row indexes, each of size
// at least two. The zero value is the empty partition.
type Partition struct {
	// NRows is the number of rows of the underlying relation.
	NRows int

	// Cluster i is backing[offsets[i]:offsets[i+1]]: backing holds every
	// clustered row and offsets the cluster boundaries with a leading 0.
	// Both are nil in the zero value.
	backing []int32
	offsets []int32
}

// Card returns |π|, the number of clusters.
func (p *Partition) Card() int { return max(len(p.offsets)-1, 0) }

// Cluster returns the rows of cluster i, 0 <= i < Card(). The slice
// aliases the partition, which callers must not modify.
func (p *Partition) Cluster(i int) []int32 {
	lo, hi := p.offsets[i], p.offsets[i+1]
	return p.backing[lo:hi:hi]
}

// Size returns ‖π‖, the total number of rows inside clusters.
func (p *Partition) Size() int { return len(p.backing) }

// Error returns e(π) = ‖π‖ − |π|, the minimum number of rows to remove so
// that the partitioning attributes form a key.
func (p *Partition) Error() int { return p.Size() - p.Card() }

// IsUnique reports whether the partition has no cluster, i.e. the
// partitioning attribute set is a key (all classes are singletons).
func (p *Partition) IsUnique() bool { return p.Card() == 0 }

// Single builds the stripped partition of one dictionary-encoded column.
// card must be at least 1 + max(col); rows with unique codes are stripped.
// Clusters come in code order, and the rows of each in row order.
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
	return &Partition{NRows: len(col), backing: backing, offsets: offsets}
}

// Refiner refines partitions one cluster at a time (Algorithm 5 of the
// paper). It keeps the sets-array, touched-id list and offsets scratch
// between calls so that refining many clusters allocates nothing after
// warm-up; only clusters above smallCluster rows touch the sets-array.
type Refiner struct {
	buckets [][]int32 // indexed by dictionary code
	touched []int32   // codes used by the current cluster
	offsets []int32   // scratch for Refine's output offsets, copied out exact-size
}

// NewRefiner returns a refiner whose sets-array is sized for columns with
// cardinality up to maxCard; Split grows it for larger ones.
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

// smallCluster is the largest cluster Split groups by comparing codes
// pairwise instead of through the bucket table. Nearly every cluster a
// refinement meets is this small (most have two rows), and for them a
// card-sized table indexed per row costs more than the at most 28
// comparisons. Bounds of 4 and 16 timed within noise of 8 on DHyFD's
// validation, TANE's level joins and DFD's walk (see DESIGN.md).
const smallCluster = 8

// refine computes π_XA from π_X by splitting every cluster on column col.
// Sub-clusters are laid into one row array sized for ‖π_X‖, so the result
// costs three allocations: the struct, its rows and its offsets.
//
//fd:hotpath
func (rf *Refiner) refine(p *Partition, col []int32, card int) *Partition {
	backing := make([]int32, 0, p.Size())
	rf.offsets = append(rf.offsets[:0], 0)
	for i := range p.Card() {
		backing, rf.offsets = rf.Split(p.Cluster(i), col, card, backing, rf.offsets)
	}
	// The offsets scratch is reused next call; the partition keeps an
	// exact-size copy, so per-call growth amortizes away entirely.
	return &Partition{NRows: p.NRows, backing: backing, offsets: append([]int32(nil), rf.offsets...)}
}

// Split is the refinement kernel of Algorithm 5: it splits one cluster by
// the codes of column col, whose cardinality is card, appending the rows
// of each sub-cluster of two or more rows to rows and the sub-cluster's
// end position in rows to ends, and returns the grown slices.
// Sub-clusters come in the order of their first rows in cluster, and the
// rows of each in cluster order. A cluster of at most smallCluster rows is
// grouped by comparing its codes pairwise in a fixed-size array; a larger
// one goes through the bucket table, grown to card on demand. Both give
// the same output. refine calls it once per cluster and validation once
// per cluster and attribute; RefineBatch items run it on pool workers,
// one Refiner each, so it writes only its parameters and receiver
// scratch.
//
//fd:hotpath
//fd:shardkernel
func (rf *Refiner) Split(cluster, col []int32, card int, rows, ends []int32) ([]int32, []int32) {
	if n := len(cluster); n <= smallCluster {
		var codes [smallCluster]int32
		for i, row := range cluster {
			codes[i] = col[row]
		}
		var joined uint // bit j: row j already belongs to a sub-cluster
		for i := 0; i < n-1; i++ {
			if joined&(1<<i) != 0 {
				continue
			}
			at := len(rows)
			for j := i + 1; j < n; j++ {
				if codes[j] == codes[i] {
					if len(rows) == at {
						rows = append(rows, cluster[i])
					}
					rows = append(rows, cluster[j])
					joined |= 1 << j
				}
			}
			if len(rows) > at {
				ends = append(ends, int32(len(rows)))
			}
		}
		return rows, ends
	}
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
			rows = append(rows, b...)
			ends = append(ends, int32(len(rows)))
		}
		rf.buckets[v] = rf.buckets[v][:0]
	}
	rf.touched = rf.touched[:0]
	return rows, ends
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
	for _, row := range p.backing {
		dst.Set(int(row))
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
		if p.IsUnique() {
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
	return &Partition{NRows: nrows, backing: all, offsets: []int32{0, int32(nrows)}}
}

// Equal reports whether two partitions contain the same clusters,
// disregarding the order of clusters and of rows within them. Neither
// operand changes: each row is mapped to the smallest row of its
// cluster, and the two maps must agree.
func (p *Partition) Equal(o *Partition) bool {
	if p.NRows != o.NRows || p.Card() != o.Card() || p.Size() != o.Size() {
		return false
	}
	return slices.Equal(p.leaders(), o.leaders())
}

// leaders maps every row to the smallest row of its cluster, and stripped
// rows to -1.
func (p *Partition) leaders() []int32 {
	lead := make([]int32, p.NRows)
	for i := range lead {
		lead[i] = -1
	}
	for i := range p.Card() {
		cluster := p.Cluster(i)
		first := slices.Min(cluster)
		for _, row := range cluster {
			lead[row] = first
		}
	}
	return lead
}
