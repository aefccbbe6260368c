// Package validate implements FD validation over stripped partitions
// (Algorithm 4 of the paper), shared by HyFD and DHyFD.
//
// Validating X → Y with a partition π_X′ for some X′ ⊆ X refines one
// cluster at a time by the attributes X−X′ (Algorithm 5) and compares the
// tuples of each refined cluster against a representative. Full partitions
// are never materialized, so validation of an invalid FD exits as soon as
// every RHS attribute has a witnessing tuple pair — and every witness pair
// doubles as a sampled non-FD, the paper's combination of validation and
// sampling.
package validate

import (
	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sampling"
)

// Validator holds reusable scratch state for many FD validations over one
// relation.
type Validator struct {
	r  *relation.Relation
	rf *partition.Refiner
	ag bitset.Set
	// Refinement scratch, reused across FD calls: the sub-clusters of one
	// start cluster, as rows and end positions in them, ping-pong between
	// the two buffers, one refined attribute at a time.
	rowsA, endsA []int32
	rowsB, endsB []int32
	attrs        []int
	// Approximate-validation scratch: the g3 counter every refined
	// cluster is charged through, and the per-attribute violation budgets
	// of the current FD call.
	g3   *partition.G3Counter
	viol []int
	// MaxViolations switches FD to g3-style approximate validation when
	// positive: a RHS attribute stays valid while the rows that would have
	// to be deleted for lhs → attr to hold exactly stay at or below this
	// bound. Zero keeps the exact tuple-comparison path.
	MaxViolations int
	// LastSize records ‖π_lhs‖ — the fused top-k redundancy score — for
	// the most recent FD call: the total rows inside the clusters the
	// refinement produced. It is 0 when the call early-exited with every
	// RHS attribute invalid; callers only read it for valid attributes.
	LastSize int
	// Validations counts validated (node, RHS attribute) pairs;
	// Invalidated counts how many of those failed.
	Validations int
	Invalidated int
	// RowsScanned counts cluster rows fed into refinement and tuple
	// comparison; ClustersRefined counts Algorithm 5 cluster-refinement
	// steps. Both feed the engine.RunStats hot-path counters.
	RowsScanned     int
	ClustersRefined int
}

// New returns a validator for r.
func New(r *relation.Relation) *Validator {
	maxCard := 1
	for _, c := range r.Cards {
		if c > maxCard {
			maxCard = c
		}
	}
	return &Validator{
		r:  r,
		rf: partition.NewRefiner(maxCard),
		ag: bitset.New(r.NumCols()),
		g3: partition.NewG3Counter(0),
	}
}

// FD validates lhs → rhs given a stripped partition over startAttrs ⊆ lhs.
// It returns the RHS attributes that remain valid and records one non-FD
// witness per invalidated attribute group into nonFDs. With MaxViolations
// set, validity is the g3 bound instead and no witnesses are recorded
// (approximate runs must not refute by exact pairs).
func (v *Validator) FD(lhs, rhs bitset.Set, start *partition.Partition, startAttrs bitset.Set, nonFDs *sampling.NonFDSet) bitset.Set {
	valid := rhs.Clone()
	v.Validations += rhs.Count()
	v.LastSize = 0
	v.attrs = v.attrs[:0]
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		if !startAttrs.Contains(a) {
			v.attrs = append(v.attrs, a)
		}
	}
	remaining := v.attrs
	cols := v.r.Cols
	approx := v.MaxViolations > 0
	if approx {
		if cap(v.viol) < v.r.NumCols() {
			v.viol = make([]int, v.r.NumCols())
		}
		v.viol = v.viol[:v.r.NumCols()]
		for a := rhs.Next(0); a >= 0; a = rhs.Next(a + 1) {
			v.viol[a] = 0
		}
	}
	size := 0

	rows, ends := v.rowsA, v.endsA
	spare, spareEnds := v.rowsB, v.endsB
	defer func() {
		v.rowsA, v.endsA = rows[:0], ends[:0]
		v.rowsB, v.endsB = spare[:0], spareEnds[:0]
	}()
	for i := range start.Card() {
		cluster := start.Cluster(i)
		v.RowsScanned += len(cluster)
		// The sub-clusters refined so far: cur[lo:hi] for consecutive
		// ends hi, at first the start cluster itself.
		whole := [1]int32{int32(len(cluster))}
		cur, curEnds := cluster, whole[:]
		for _, a := range remaining {
			spare, spareEnds = spare[:0], spareEnds[:0]
			lo := int32(0)
			for _, hi := range curEnds {
				v.ClustersRefined++
				v.RowsScanned += int(hi - lo)
				spare, spareEnds = v.rf.Split(cur[lo:hi], cols[a], v.r.Cards[a], spare, spareEnds)
				lo = hi
			}
			rows, ends, spare, spareEnds = spare, spareEnds, rows, ends
			cur, curEnds = rows, ends
			if len(curEnds) == 0 {
				break
			}
		}
		lo := int32(0)
		for _, hi := range curEnds {
			s := cur[lo:hi]
			lo = hi
			size += len(s)
			if approx {
				if v.scanApprox(s, valid) {
					return valid
				}
				continue
			}
			t0 := s[0]
			for _, ti := range s[1:] {
				anyInvalid := false
				for a := valid.Next(0); a >= 0; a = valid.Next(a + 1) {
					if cols[a][ti] != cols[a][t0] {
						valid.Remove(a)
						v.Invalidated++
						anyInvalid = true
					}
				}
				if anyInvalid {
					if nonFDs != nil {
						nonFDs.Add(sampling.AgreeSet(v.r, int(t0), int(ti), v.ag))
					}
					if valid.IsEmpty() {
						return valid
					}
				}
			}
		}
	}
	v.LastSize = size
	return valid
}

// scanApprox charges one refined lhs-cluster against the violation budget
// of every still-valid RHS attribute: the rows outside the largest
// attr-agreeing group must be deleted for lhs → attr to hold on this
// cluster. Returns true when every RHS attribute has been invalidated.
func (v *Validator) scanApprox(s []int32, valid bitset.Set) (done bool) {
	for a := valid.Next(0); a >= 0; a = valid.Next(a + 1) {
		v.viol[a] += v.g3.ClusterViolations(s, v.r.Cols[a], v.r.Cards[a])
		if v.viol[a] > v.MaxViolations {
			valid.Remove(a)
			v.Invalidated++
			if valid.IsEmpty() {
				return true
			}
		}
	}
	return false
}

// EmptyLHS validates ∅ → rhs by comparing every row to row 0 — the
// validate(root, {r}) call at the start of Algorithm 6. Constant columns
// survive; each invalidated attribute contributes a non-FD witness.
func (v *Validator) EmptyLHS(rhs bitset.Set, nonFDs *sampling.NonFDSet) bitset.Set {
	n := v.r.NumRows()
	if n < 2 {
		v.LastSize = 0
		return rhs.Clone()
	}
	none := bitset.New(v.r.NumCols())
	return v.FD(none, rhs, partition.ForAttrs(none, v.r.Cols, v.r.Cards), none, nonFDs)
}

// InvalidCount tracks Invalidated/Validations deltas around a scope.
type InvalidCount struct {
	val, inv int
}

// Snapshot captures the validator's counters.
func (v *Validator) Snapshot() InvalidCount {
	return InvalidCount{val: v.Validations, inv: v.Invalidated}
}

// Since returns validations and invalidations since the snapshot.
func (v *Validator) Since(s InvalidCount) (validations, invalidated int) {
	return v.Validations - s.val, v.Invalidated - s.inv
}
