package partition

import (
	"context"

	"repro/internal/engine"
	"repro/internal/faults"
)

// This file holds the row-sharded refinement of one partition, the one
// partition kernel whose call has no independent items to fan out over
// (the bootstrap fans out over columns, batches over jobs):
// refineSharded splits the parent partition's clusters row-wise into
// ~shardSize-row contiguous cluster ranges, refines each range on a pool
// worker with pooled scratch, then stitches the per-range outputs into
// one compact backing by prefix offset. Because the serial kernel
// processes clusters independently and appends its output in cluster
// order, concatenating the per-range outputs in range order reproduces
// the serial layout — backing and offsets — bit for bit, at every shard
// size.

// DefaultShardSize is the row count of one shard in the row-sharded
// kernels (refinement here, the sampling passes and the pair scan in
// package sampling): large enough that per-shard fixed costs (range
// lists, pool items) amortize away, small enough that a shard's scratch
// stays cache-resident.
const DefaultShardSize = 1 << 16

// ShardClusters splits clusters into contiguous ranges holding at least
// size rows each (the last range may be smaller; a single oversized
// cluster forms its own range; size <= 0 selects DefaultShardSize).
// Returns the range boundaries as cluster indexes: range s is
// clusters[cuts[s]:cuts[s+1]]. The sharded refinement and sampling
// passes cut their per-shard work with it, so every per-shard consumer
// of a partition agrees on the same row-balanced decomposition.
func ShardClusters(clusters [][]int32, size int) []int {
	if size <= 0 {
		size = DefaultShardSize
	}
	cuts := make([]int, 1, len(clusters)/2+2)
	rows := 0
	for i, cl := range clusters {
		rows += len(cl)
		if rows >= size {
			cuts = append(cuts, i+1)
			rows = 0
		}
	}
	if cuts[len(cuts)-1] != len(clusters) {
		cuts = append(cuts, len(clusters))
	}
	return cuts
}

// rangeRows sums the rows of clusters[lo:hi], the capacity one shard's
// local backing needs.
func rangeRows(clusters [][]int32, lo, hi int) int {
	rows := 0
	for _, cl := range clusters[lo:hi] {
		rows += len(cl)
	}
	return rows
}

// stitchShard lays one shard's local output into the shared compact
// arrays: the local backing lands at its prefix base, and each local
// cluster-end offset lands base-adjusted in the shard's reserved
// offsets window. Writes are deterministic positions of deterministic
// values, so a retried shard rewrites identical bytes.
//
//fd:hotpath
//fd:shardkernel
func stitchShard(back, ends []int32, base int32, backing, offsets []int32) {
	copy(backing[base:int(base)+len(back)], back)
	for i, e := range ends {
		offsets[i] = base + e
	}
}

// refineSharded computes π_XA from π_X exactly like Refine. On a
// pool of more than one worker, a parent spanning more than one
// ~shardSize-row cluster range (ShardClusters) refines its ranges
// concurrently, each on pooled Refiner scratch, then scatters them by
// prefix offset into one backing; each shard's stitch costs one
// partition.refineshard fault-site hit. Otherwise — one worker, or one
// range — the serial kernel runs on pooled scratch, and a one-worker pool
// cuts no ranges at all. The result is byte-identical either way. On
// cancellation or an injected fault the error returns with no partial
// partition.
func refineSharded(ctx context.Context, pool *engine.Pool, p *Partition, col []int32, card, shardSize int) (*Partition, error) {
	var cuts []int
	if pool.Workers() > 1 {
		cuts = ShardClusters(p.Clusters, shardSize)
	}
	if len(cuts) <= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Refine(p, col, card), nil
	}

	// Phase 1: refine each cluster range into local backing/ends pairs.
	// Re-running an item is safe: the kernel rebuilds the range's output
	// from the immutable parent and leaves its scratch cleared. A shard
	// returns its Refiner only after the kernel completed.
	nshards := len(cuts) - 1
	backs := make([][]int32, nshards)
	endss := make([][]int32, nshards)
	err := pool.Run(ctx, nshards, func(_, s int) {
		rf := getRefiner()
		rf.grow(card)
		lo, hi := cuts[s], cuts[s+1]
		backing := make([]int32, 0, rangeRows(p.Clusters, lo, hi))
		ends := make([]int32, 0, (hi-lo)*2)
		backs[s], endss[s] = rf.refineRange(p.Clusters[lo:hi], col, backing, ends)
		refiners.Put(rf)
	})
	if err != nil {
		return nil, err
	}
	return stitchSharded(ctx, pool, p.NRows, backs, endss)
}

// stitchSharded runs phases 2 and 3 of the sharded refinement: a
// sequential prefix pass assigning every shard its backing base and
// offsets window, then a parallel stitch of the local outputs into the
// shared compact arrays.
func stitchSharded(ctx context.Context, pool *engine.Pool, nrows int, backs, endss [][]int32) (*Partition, error) {
	nshards := len(backs)
	// Phase 2: prefix offsets in shard order — rows of shard s precede
	// rows of shard s+1, exactly the serial append order.
	bases := make([]int32, nshards+1)
	obase := make([]int, nshards+1)
	for s := 0; s < nshards; s++ {
		bases[s+1] = bases[s] + int32(len(backs[s]))
		obase[s+1] = obase[s] + len(endss[s])
	}
	backing := make([]int32, bases[nshards])
	offsets := make([]int32, obase[nshards]+1) // offsets[0] = 0

	// Phase 3: scatter every shard's local output into its disjoint
	// ranges of the shared arrays.
	err := pool.Run(ctx, nshards, func(_, s int) {
		faults.Check(faults.PartitionRefineShard)
		stitchShard(backs[s], endss[s], bases[s], backing, offsets[obase[s]+1:obase[s+1]+1])
	})
	if err != nil {
		return nil, err
	}
	pool.CountShards(int64(nshards), int64(len(backing)))
	out := &Partition{NRows: nrows}
	out.setCompact(backing, offsets)
	return out, nil
}
