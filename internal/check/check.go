// Package check verifies FDs against data and reports the violating tuple
// pairs — the enforcement side of discovery: once a steward decides an FD
// from the ranking is a real constraint, violations point at the rows to
// repair (like the duplicate voter id behind the paper's σ4).
//
// VerifyCover is also the post-run soundness gate of discovery. It checks
// every row and, like ranking, takes the cover's LHS groups as its
// parallel unit: each distinct LHS builds π_LHS once, on one worker,
// and decides all FDs that share it.
package check

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Violation is a pair of rows agreeing on an FD's LHS but differing on the
// given RHS attribute.
type Violation struct {
	Row1, Row2 int
	Attr       int
}

// FD returns up to limit violations of f on r (0 = all). An empty result
// means the FD holds.
func FD(r *relation.Relation, f dep.FD, limit int) []Violation {
	return witnesses(r, f, partition.ForAttrs(f.LHS, r.Cols, r.Cards).Clusters, limit)
}

// witnesses lists up to limit violations of f (0 = all) found in the
// clusters of π_LHS.
func witnesses(r *relation.Relation, f dep.FD, clusters [][]int32, limit int) []Violation {
	var out []Violation
	for _, cluster := range clusters {
		// Within a cluster all rows agree on the LHS; group by each RHS
		// attribute and report one witness per differing row.
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			first := cluster[0]
			for _, row := range cluster[1:] {
				if r.Cols[a][row] != r.Cols[a][first] {
					out = append(out, Violation{Row1: int(first), Row2: int(row), Attr: a})
					if limit > 0 && len(out) >= limit {
						return out
					}
				}
			}
		}
	}
	return out
}

// Holds reports whether f holds on r.
func Holds(r *relation.Relation, f dep.FD) bool {
	return len(FD(r, f, 1)) == 0
}

// All validates every FD of a cover and returns the violated ones with one
// witness each. Useful after new data arrives: re-check yesterday's cover.
func All(r *relation.Relation, fds []dep.FD) map[int]Violation {
	out := map[int]Violation{}
	for i, f := range fds {
		if v := FD(r, f, 1); len(v) > 0 {
			out[i] = v[0]
		}
	}
	return out
}

// VerifyOptions tunes VerifyCover.
type VerifyOptions struct {
	// SampleRows is ignored: VerifyCover checks every row. It was the
	// row count of a head sample, and it stays only because the
	// benchmark harness in cmd/fdperf sets it.
	SampleRows int
	// Cache optionally supplies LHS partitions already built by the
	// discovery run (and receives the ones verification builds).
	Cache *partition.Cache
	// MaxViolations verifies the cover approximately: an FD passes while
	// its g3-style violation count — the rows to delete for it to hold
	// exactly — stays at or below this bound. 0 keeps exact
	// verification.
	MaxViolations int
	// Workers is the width of the pool the cover's LHS groups fan out
	// over; <= 1 verifies them serially. Each group is decided whole on
	// one worker, so the verdicts match the serial pass at every width.
	Workers int
}

// VerifyReport is the outcome of a post-run cover verification.
type VerifyReport struct {
	// Checked is the number of FDs verified; Violated how many failed.
	Checked, Violated int
	// Sound holds the FDs that passed, in input order.
	Sound []dep.FD
}

// verdict is one FD's outcome in VerifyCover: unchecked until its LHS
// group has been decided.
type verdict uint8

const (
	unchecked verdict = iota
	holds
	violated
)

// VerifyCover re-validates every FD of a cover directly against the
// relation and splits the sound ones from the violated ones — the
// soundness gate a cancelled, degraded, or errored discovery run passes
// its partial cover through before anyone acts on it. It shares no
// mutable state with the run that produced the cover: each FD is checked
// from a partition built fresh or taken read-only from opts.Cache (the
// partitions there are immutable, so a buggy run cannot have corrupted
// them — at worst the cache holds a partition for a set the run never
// built, which is still a correct partition of the data).
//
// The cover is grouped by LHS (dep.GroupByLHS) and partition.ForGroups
// fans the groups out over a pool of opts.Workers workers, taking π_LHS
// once per group. Each group decides its FDs serially over it: the exact
// check scans for a witness pair, the g3 check counts on the worker's
// G3Counter.
//
// On cancellation — or a worker failure — the error returns alongside
// the partial report: Sound then holds only the FDs already verified,
// which remains a sound (if conservative) cover. Callers verifying after
// a cancelled run pass a non-cancellable context (context.WithoutCancel)
// so the gate still completes.
func VerifyCover(ctx context.Context, r *relation.Relation, fds []dep.FD, opts VerifyOptions) (VerifyReport, error) {
	rep := VerifyReport{Checked: len(fds)}
	if len(fds) == 0 {
		return rep, nil
	}
	pool := engine.NewPool(opts.Workers)
	counters := make([]*partition.G3Counter, pool.Workers())
	for w := range counters {
		counters[w] = partition.NewG3Counter(0)
	}
	verdicts := make([]verdict, len(fds))
	err := partition.ForGroups(ctx, pool, opts.Cache, dep.GroupByLHS(fds), r.Cols, r.Cards, func(w int, g dep.Group, p *partition.Partition, _ bool) {
		for _, i := range g.Idxs {
			v := holds
			if opts.MaxViolations > 0 {
				if g3Violations(r, fds[i], p, counters[w], opts.MaxViolations) > opts.MaxViolations {
					v = violated
				}
			} else if len(witnesses(r, fds[i], p.Clusters, 1)) > 0 {
				v = violated
			}
			verdicts[i] = v
		}
	})
	rep.Sound = make([]dep.FD, 0, len(fds))
	for i, v := range verdicts {
		switch v {
		case holds:
			rep.Sound = append(rep.Sound, fds[i])
		case violated:
			rep.Violated++
		case unchecked:
		}
	}
	return rep, err
}

// g3Violations counts the g3 violations of f over p = π_LHS — the rows
// to delete so f holds exactly — summed over f's RHS attributes (covers
// are singleton-RHS in practice) and stopping early past limit.
func g3Violations(r *relation.Relation, f dep.FD, p *partition.Partition, g *partition.G3Counter, limit int) int {
	total := 0
	for a := f.RHS.Next(0); a >= 0 && total <= limit; a = f.RHS.Next(a + 1) {
		total += g.Violations(p, r.Cols[a], r.Cards[a], limit)
	}
	return total
}

// Keys verifies that an attribute set is unique on r, returning a
// duplicate row pair if not.
func Keys(r *relation.Relation, key bitset.Set) (int, int, bool) {
	p := partition.ForAttrs(key, r.Cols, r.Cards)
	for _, cluster := range p.Clusters {
		if len(cluster) >= 2 {
			return int(cluster[0]), int(cluster[1]), false
		}
	}
	return 0, 0, true
}
