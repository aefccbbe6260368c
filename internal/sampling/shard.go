package sampling

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
)

// This file holds the entry points of the agree-set extraction passes.
// Each decides from the pool width whether to shard: on one worker it
// runs the serial kernel, on more it shards. Phase 1 collects per-shard
// agree sets into shard-local NonFDSets on pool workers — local dedup
// bounds each shard's memory by its distinct sets — and phase 2
// reconciles them sequentially in shard order into the shared set.
// Because NonFDSet.Add keeps first occurrences in insertion order and
// shard s's comparisons precede shard s+1's in the serial scan order,
// the merged set's contents AND insertion order are identical to the
// serial pass — so induction order downstream, and therefore the
// discovered cover, cannot depend on the worker count or shard size.

// ClusterNeighborSample samples agree sets from each cluster of p using
// the sorted-neighborhood method: rows of a cluster are sorted by their
// full code tuple and each row is compared to its neighbor at the given
// window distance (distance 1 compares adjacent rows). Results accumulate
// into dst; the number of *new* non-FDs and the number of comparisons are
// returned, identical at every worker count and shard size.
//
// On a pool of more than one worker the clusters split into ~shardSize-row
// contiguous ranges (partition.ShardClusters) that sample concurrently,
// then merge, with one sampling.shardmerge hit per shard folded. A
// one-worker pool, or a partition within one range, runs the serial
// kernel, and a one-worker pool cuts no ranges at all. Either way the
// pass fires sampling.run once per call.
func ClusterNeighborSample(ctx context.Context, pool *engine.Pool, r *relation.Relation, p *partition.Partition, distance int, dst *NonFDSet, shardSize int) (newNonFDs, comparisons int, err error) {
	if pool.Workers() > 1 {
		if cuts := partition.ShardClusters(p.Clusters, shardSize); len(cuts) > 2 {
			return sampleSharded(ctx, pool, r, p, cuts, distance, dst)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	faults.Check(faults.SamplingRun)
	newNonFDs, comparisons = sampleClusters(r, p.Clusters, max(distance, 1), dst)
	return newNonFDs, comparisons, nil
}

// sampleSharded is ClusterNeighborSample's sharded path over the
// cluster ranges cuts.
func sampleSharded(ctx context.Context, pool *engine.Pool, r *relation.Relation, p *partition.Partition, cuts []int, distance int, dst *NonFDSet) (newNonFDs, comparisons int, err error) {
	faults.Check(faults.SamplingRun)
	distance = max(distance, 1)
	nshards := len(cuts) - 1

	// Phase 1: sample each cluster range into a shard-local set.
	// Re-running an item is safe: the kernel rebuilds the shard's local
	// set from the immutable partition and relation.
	locals := make([]*NonFDSet, nshards)
	comps := make([]int, nshards)
	err = pool.Run(ctx, nshards, func(_, s int) {
		sampleShard(r, p, cuts, distance, s, locals, comps)
	})
	if err != nil {
		return 0, 0, err
	}

	// Phase 2: fold the shard-local sets into dst in shard order. The
	// merge runs as one pool item so an injected sampling.shardmerge
	// fault recovers into a typed *engine.PanicError instead of escaping
	// as a raw panic; Add is idempotent, so the merge is safe to re-enter
	// after a transient failure.
	rows := int64(0)
	err = pool.Run(ctx, 1, func(_, _ int) {
		for s, local := range locals {
			faults.Check(faults.SamplingShardMerge)
			for _, x := range local.Sets() {
				if dst.Add(x) {
					newNonFDs++
				}
			}
			comparisons += comps[s]
			rows += int64(local.Len())
		}
	})
	if err != nil {
		return 0, 0, err
	}
	pool.CountShards(int64(nshards), rows)
	return newNonFDs, comparisons, nil
}

// NegativeCover computes the agree sets of all tuple pairs — the full
// negative cover FDEP and FastFDs derive their covers from — honouring
// ctx. On a pool of more than one worker the quadratic all-pairs scan
// shards by contiguous ~shardSize-row outer-row ranges, each collecting
// its agree sets locally, then merges in range order with one
// sampling.shardmerge hit per shard folded; a one-worker pool, or a
// relation within one range, runs the serial scan. The resulting set and
// its insertion order are identical either way.
func NegativeCover(ctx context.Context, pool *engine.Pool, r *relation.Relation, shardSize int) (*NonFDSet, error) {
	if shardSize <= 0 {
		shardSize = partition.DefaultShardSize
	}
	nshards := (r.NumRows() + shardSize - 1) / shardSize
	if pool.Workers() == 1 || nshards <= 1 {
		return negativeCover(ctx, r)
	}

	locals := make([]*NonFDSet, nshards)
	err := pool.Run(ctx, nshards, func(_, s int) {
		coverShard(r, shardSize, s, locals)
	})
	if err != nil {
		return nil, err
	}

	out := NewNonFDSet(r.NumCols())
	rows := int64(0)
	err = pool.Run(ctx, 1, func(_, _ int) {
		for _, local := range locals {
			faults.Check(faults.SamplingShardMerge)
			for _, x := range local.Sets() {
				out.Add(x)
			}
			rows += int64(local.Len())
		}
	})
	if err != nil {
		return nil, err
	}
	pool.CountShards(int64(nshards), rows)
	return out, nil
}

// sampleShard is the phase-1 kernel of the sharded sample: shard s's
// cluster range samples into a fresh shard-local set, and the only
// writes that leave the kernel land in its disjoint locals[s] / comps[s]
// slots — which is what makes re-running the item after a transient
// failure safe.
//
//fd:shardkernel
func sampleShard(r *relation.Relation, p *partition.Partition, cuts []int, distance, s int, locals []*NonFDSet, comps []int) {
	local := NewNonFDSet(r.NumCols())
	_, n := sampleClusters(r, p.Clusters[cuts[s]:cuts[s+1]], distance, local)
	locals[s], comps[s] = local, n
}

// coverShard is the phase-1 kernel of the sharded negative cover: outer
// rows [s*shardSize, hi) scan against all later rows into a fresh local
// set, written only to the shard's disjoint locals[s] slot.
//
//fd:shardkernel
func coverShard(r *relation.Relation, shardSize, s int, locals []*NonFDSet) {
	local := NewNonFDSet(r.NumCols())
	buf := bitset.New(r.NumCols())
	lo := s * shardSize
	hi := min(lo+shardSize, r.NumRows())
	for i := lo; i < hi; i++ {
		coverRow(r, i, local, buf)
	}
	locals[s] = local
}
