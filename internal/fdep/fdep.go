// Package fdep implements the row-based FDEP algorithm of Flach and Savnik
// and the paper's two improved variants.
//
// FDEP computes the full negative cover — the agree sets of all tuple
// pairs — and inducts the positive cover from it: starting from ∅ → R,
// every agree set X contributes the non-FD X ↛ R−X, specializing the FD
// set until it is exactly the set of minimal valid FDs.
//
// The three variants differ in induction machinery (Section V-B):
//
//   - Classic: per-attribute induction on a classic FD-tree, as published.
//   - NonRedundant (FDEP1): a non-redundant cover of non-FDs (maximal
//     agree sets only) drives synergized induction on an extended FD-tree.
//   - Sorted (FDEP2): all non-FDs sorted descending by size drive
//     synergized induction on an extended FD-tree. The paper's evaluation
//     shows this variant dominating, and refers to it as FDEP after V-B.
package fdep

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/fdtree"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
)

// Variant selects the induction strategy.
type Variant int

const (
	// Classic is the original FDEP: classic FD-tree, one RHS attribute at
	// a time.
	Classic Variant = iota
	// NonRedundant is FDEP1: maximal agree sets + synergized induction.
	NonRedundant
	// Sorted is FDEP2: descending-sorted agree sets + synergized induction.
	Sorted
)

func (v Variant) String() string {
	switch v {
	case Classic:
		return "FDEP"
	case NonRedundant:
		return "FDEP1"
	case Sorted:
		return "FDEP2"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config tunes FDEP's negative-cover pass; induction itself is inherently
// sequential and has no knobs. Of the shared run options, Workers fans
// the pair scan out over blocks of outer rows of about equal pair count
// (the merged agree-set order is identical to the serial scan, so every
// variant's induction sees the same input). The single induction pass
// has no resumable frontier and holds no partitions: Checkpoint, Resume,
// Cache, Budget, TopK and MaxViolations are ignored.
type Config = runstate.Options

// Run returns the left-reduced cover (singleton RHSs) of the FDs that hold
// on r, using the given variant, together with the algorithm-agnostic run
// report. Both the quadratic negative-cover pass and the induction loop
// honour ctx; on cancellation the partial report (with Cancelled set) is
// returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, variant Variant, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	h := runstate.Start(strings.ToLower(variant.String()), runstate.Options{Workers: cfg.Workers})
	defer h.Recover(&fds, &rs, &err)
	rs = h.Stats
	n := r.NumCols()
	nrows := int64(r.NumRows())
	stop := rs.Phase("negative-cover")
	neg, err := sampling.NegativeCover(ctx, h.Pool, r)
	stop()
	if err != nil {
		return h.End(nil, err)
	}
	rs.RowsScanned += nrows * (nrows - 1) // every tuple pair reads two rows
	rs.NonFDs = int64(neg.Len())

	done := func(fds []dep.FD) ([]dep.FD, *engine.RunStats, error) {
		dep.Sort(fds)
		return h.End(fds, nil)
	}

	stop = rs.Phase("induct")
	defer stop()
	switch variant {
	case Classic:
		neg.SortDescending()
		tree := fdtree.NewClassicWithFullRHS(n)
		for i, x := range neg.Sets() {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return h.End(nil, err)
				}
			}
			for a := 0; a < n; a++ {
				if !x.Contains(a) {
					tree.SpecializeClassic(x, a)
				}
			}
		}
		return done(dep.SplitRHS(tree.FDs()))
	case NonRedundant:
		neg.NonRedundant()
	case Sorted:
		neg.SortDescending()
	default:
		return h.End(nil, fmt.Errorf("fdep: unknown variant %v", variant))
	}

	tree := fdtree.NewWithFullRHS(n)
	full := bitset.Full(n)
	for i, x := range neg.Sets() {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return h.End(nil, err)
			}
		}
		y := full.Difference(x)
		tree.Induct(x, y)
	}
	return done(dep.SplitRHS(tree.FDs()))
}
