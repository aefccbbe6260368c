// Package check verifies FDs against data and reports the violating tuple
// pairs — the enforcement side of discovery: once a steward decides an FD
// from the ranking is a real constraint, violations point at the rows to
// repair (like the duplicate voter id behind the paper's σ4).
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
	var out []Violation
	p := partition.ForAttrs(f.LHS, r.Cols, r.Cards)
	for _, cluster := range p.Clusters {
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
	// SampleRows bounds the rows verified per FD: relations larger than
	// this are verified on their first SampleRows rows (a violation in
	// the sample disproves the FD on the whole relation, so sampling
	// never drops a valid FD — it can only fail to catch a violation
	// hiding in the tail). 0 applies DefaultSampleRows; negative
	// verifies every row.
	SampleRows int
	// Cache optionally supplies LHS partitions already built by the
	// discovery run (and receives the ones verification builds). It is
	// ignored whenever verification runs on a row sample: the sample is
	// a different relation, so cached full-relation partitions would be
	// wrong there.
	Cache *partition.Cache
	// MaxViolations verifies the cover approximately: an FD passes while
	// its g3-style violation count — the rows to delete for it to hold
	// exactly — stays at or below this bound. Deleting rows never raises
	// the count, so on a row sample the measured count is a lower bound:
	// sampled verification can refute an approximate FD but never
	// wrongly confirm one beyond what full verification would. 0 keeps
	// exact verification.
	MaxViolations int
	// Workers is the width of the pool each FD's check runs on. Above
	// one, the LHS partition materializes through the sharded kernels and
	// its clusters split into ~ShardSize-row ranges scanned concurrently,
	// with the per-shard verdicts (or capped g3 counts) reconciled into
	// the pass/fail decision. Clusters violate independently, so the
	// decision matches the serial scan at every shard size. <= 1 scans
	// serially.
	Workers int
	// ShardSize is the rows per verification shard; 0 selects
	// partition.DefaultShardSize.
	ShardSize int
}

// DefaultSampleRows is the row-sample bound the post-run verifier uses
// when VerifyOptions leaves SampleRows zero.
const DefaultSampleRows = 100_000

// VerifyReport is the outcome of a post-run cover verification.
type VerifyReport struct {
	// Checked is the number of FDs verified; Violated how many failed.
	Checked, Violated int
	// Sound holds the FDs that passed, in input order.
	Sound []dep.FD
	// Sampled reports that verification ran on a row sample rather than
	// the full relation.
	Sampled bool
}

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
// On cancellation — or a worker failure in the sharded scan — the error
// returns alongside the partial report: Sound then holds only the FDs
// already verified, which remains a sound (if conservative) cover.
// Callers verifying after a cancelled run pass a non-cancellable
// context (context.WithoutCancel) so the gate still completes.
func VerifyCover(ctx context.Context, r *relation.Relation, fds []dep.FD, opts VerifyOptions) (VerifyReport, error) {
	rep := VerifyReport{Checked: len(fds)}
	if len(fds) == 0 {
		return rep, nil
	}
	limit := opts.SampleRows
	if limit == 0 {
		limit = DefaultSampleRows
	}
	target := r
	if limit > 0 && r.NumRows() > limit {
		target = r.Head(limit)
		rep.Sampled = true
	}
	cache := opts.Cache
	if rep.Sampled {
		// The sample is a different relation: full-relation partitions
		// must neither serve nor enter the cache here.
		cache = nil
	}
	pool := engine.NewPool(opts.Workers)
	rep.Sound = make([]dep.FD, 0, len(fds))
	for _, f := range fds {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		var sound bool
		var err error
		if opts.MaxViolations > 0 {
			var total int
			total, err = fdG3Violations(ctx, target, f, opts.MaxViolations, cache, pool, opts.ShardSize)
			sound = total <= opts.MaxViolations
		} else {
			var violated bool
			violated, err = fdViolated(ctx, target, f, cache, pool, opts.ShardSize)
			sound = !violated
		}
		if err != nil {
			return rep, err
		}
		if sound {
			rep.Sound = append(rep.Sound, f)
		} else {
			rep.Violated++
		}
	}
	return rep, nil
}

// fdViolated decides whether f has a violating witness pair on r. The
// LHS partition comes from the cache or is built on the pool; on a
// one-worker pool its clusters are scanned directly, on a wider one they
// split into ranges scanned concurrently, and any shard's witness
// refutes the FD — the same decision the serial scan makes.
func fdViolated(ctx context.Context, r *relation.Relation, f dep.FD, cache *partition.Cache, pool *engine.Pool, shardSize int) (bool, error) {
	p, _, err := partition.ForAttrsCached(ctx, pool, cache, f.LHS, r.Cols, r.Cards, shardSize)
	if err != nil {
		return false, err
	}
	if pool.Workers() == 1 {
		return clustersViolate(r, f, p.Clusters), nil
	}
	cuts := partition.ShardClusters(p.Clusters, shardSize)
	nshards := len(cuts) - 1
	violated := make([]bool, nshards)
	err = pool.Run(ctx, nshards, func(_, s int) {
		violated[s] = clustersViolate(r, f, p.Clusters[cuts[s]:cuts[s+1]])
	})
	if err != nil {
		return false, err
	}
	for _, v := range violated {
		if v {
			return true, nil
		}
	}
	return false, nil
}

// clustersViolate reports whether any cluster of the range holds a
// witness pair against f.
func clustersViolate(r *relation.Relation, f dep.FD, clusters [][]int32) bool {
	for _, cluster := range clusters {
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			first := cluster[0]
			for _, row := range cluster[1:] {
				if r.Cols[a][row] != r.Cols[a][first] {
					return true
				}
			}
		}
	}
	return false
}

// fdG3Violations counts the g3 violations of f on r — the rows to delete
// so f holds exactly — summed over f's RHS attributes (covers are
// singleton-RHS in practice) and stopping early past limit. On a
// one-worker pool one counter scans the LHS partition's clusters
// directly. On a wider pool the clusters are cut into shard ranges once
// per FD, each range counts with its limit cap on its worker's counter,
// and the per-shard counts are reconciled. Clusters violate
// independently, so the reconciled sum decides "total > limit" exactly
// like the serial count: when a shard early-exits it alone exceeds the
// limit (the true total can only be larger), and when none does every
// per-shard count is exact.
func fdG3Violations(ctx context.Context, r *relation.Relation, f dep.FD, limit int, cache *partition.Cache, pool *engine.Pool, shardSize int) (int, error) {
	p, _, err := partition.ForAttrsCached(ctx, pool, cache, f.LHS, r.Cols, r.Cards, shardSize)
	if err != nil {
		return 0, err
	}
	total := 0
	if pool.Workers() == 1 {
		g := partition.NewG3Counter(0)
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			total += g.Violations(p, r.Cols[a], r.Cards[a], limit)
			if total > limit {
				return total, nil
			}
		}
		return total, nil
	}
	cuts := partition.ShardClusters(p.Clusters, shardSize)
	nshards := len(cuts) - 1
	if nshards == 0 {
		return 0, nil
	}
	counters := make([]*partition.G3Counter, pool.Workers())
	for w := range counters {
		counters[w] = partition.NewG3Counter(0)
	}
	counts := make([]int, nshards)
	for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
		col, card := r.Cols[a], r.Cards[a]
		err := pool.Run(ctx, nshards, func(w, s int) {
			counts[s] = counters[w].ViolationsClusters(p.Clusters[cuts[s]:cuts[s+1]], col, card, limit)
		})
		if err != nil {
			return 0, err
		}
		for _, c := range counts {
			total += c
		}
		if total > limit {
			return total, nil
		}
	}
	return total, nil
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
