package partition

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// This file extends the 3-phase shard-merge scheme of the sharded
// single-attribute builder (shard.go) to the multi-attribute kernels:
// RefineSharded and IntersectSharded split the parent partition's
// clusters row-wise into ~shardSize-row contiguous cluster ranges, run
// the counting/probe phase per range on pool workers with per-worker
// scratch, then stitch the per-range outputs into one compact backing
// by prefix offset. Because both serial kernels process clusters
// independently and append their output in cluster order, concatenating
// the per-range outputs in range order reproduces the serial layout —
// backing and offsets — bit for bit, at every shard size.

// ShardClusters splits clusters into contiguous ranges holding at least
// size rows each (the last range may be smaller; a single oversized
// cluster forms its own range; size <= 0 selects DefaultShardSize).
// Returns the range boundaries as cluster indexes: range s is
// clusters[cuts[s]:cuts[s+1]]. The sharded sampling and verification
// passes cut their per-shard work with it, so every per-shard consumer
// of a partition agrees on the same row-balanced decomposition.
func ShardClusters(clusters [][]int32, size int) []int {
	if size <= 0 {
		size = DefaultShardSize
	}
	return cutShards(clusters, size)
}

// cutShards is ShardClusters' kernel, with size already resolved.
func cutShards(clusters [][]int32, size int) []int {
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

// RefineSharded computes π_XA from π_X exactly like Refiner.Refine, but
// sharded: the parent's clusters split row-wise into ~shardSize-row
// ranges (shardSize <= 0 selects DefaultShardSize) that refine
// concurrently on the pool, each on pooled Refiner scratch, then
// scatter by prefix offset into one backing. The result is
// byte-identical to the serial kernel. Each shard's stitch costs one
// partition.refineshard fault-site hit; a single-shard (or
// single-worker) input degenerates to the serial kernel. On
// cancellation or an injected fault the error returns with no partial
// partition.
func RefineSharded(ctx context.Context, pool *engine.Pool, p *Partition, col []int32, card, shardSize int) (*Partition, error) {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	cuts := cutShards(p.Clusters, shardSize)
	nshards := len(cuts) - 1
	if nshards <= 1 || pool.Workers() == 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Refine(p, col, card), nil
	}

	// Phase 1: refine each cluster range into local backing/ends pairs.
	// Re-running an item is safe: the kernel rebuilds the range's output
	// from the immutable parent and leaves its scratch cleared. A shard
	// returns its Refiner only after the kernel completed.
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

// IntersectSharded computes π_XY from π_X and a probe table of π_Y
// exactly like Intersector.Intersect, sharded the same way as
// RefineSharded. It fires partition.intersect once per product (serial
// parity) plus one partition.refineshard hit per shard stitch. The
// result is byte-identical to the serial kernel.
func IntersectSharded(ctx context.Context, pool *engine.Pool, p *Partition, probe ProbeTable, shardSize int) (*Partition, error) {
	faults.Check(faults.PartitionIntersect)
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	cuts := cutShards(p.Clusters, shardSize)
	nshards := len(cuts) - 1
	if nshards <= 1 || pool.Workers() == 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return NewIntersector().intersect(p, probe), nil
	}

	ixs := make([]*Intersector, pool.Workers())
	backs := make([][]int32, nshards)
	endss := make([][]int32, nshards)
	err := pool.Run(ctx, nshards, func(w, s int) {
		ix := ixs[w]
		if ix == nil {
			ix = NewIntersector()
			ixs[w] = ix
		}
		lo, hi := cuts[s], cuts[s+1]
		backing := make([]int32, 0, rangeRows(p.Clusters, lo, hi))
		ends := make([]int32, 0, (hi-lo)*2)
		backs[s], endss[s] = ix.intersectRange(p.Clusters[lo:hi], probe, backing, ends)
	})
	if err != nil {
		return nil, err
	}
	return stitchSharded(ctx, pool, p.NRows, backs, endss)
}

// stitchSharded runs phases 2 and 3 shared by the sharded
// multi-attribute kernels: a sequential prefix pass assigning every
// shard its backing base and offsets window, then a parallel stitch of
// the local outputs into the shared compact arrays.
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

// ForAttrsSharded is ForAttrs on the pool: the start partition builds
// through the sharded single-attribute builder and each refinement step
// through RefineSharded, so one multi-attribute materialization keeps
// every worker busy. The result is byte-identical to ForAttrs.
func ForAttrsSharded(ctx context.Context, pool *engine.Pool, x bitset.Set, cols [][]int32, cards []int, shardSize int) (*Partition, error) {
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	attrs := x.Attrs()
	if len(attrs) == 0 {
		return fullPartition(nrows), ctx.Err()
	}
	orderForRefine(attrs, cards, nrows)
	p, err := SingleSharded(ctx, pool, cols[attrs[0]], cards[attrs[0]], shardSize)
	if err != nil {
		return nil, err
	}
	for _, a := range attrs[1:] {
		if len(p.Clusters) == 0 {
			break
		}
		if p, err = RefineSharded(ctx, pool, p, cols[a], cards[a], shardSize); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// SingleSharded builds one single-attribute partition through the
// 3-phase sharded builder, byte-identical to Single. Inputs at or under
// one shard (or a single-worker pool) take the serial kernel directly.
func SingleSharded(ctx context.Context, pool *engine.Pool, col []int32, card, shardSize int) (*Partition, error) {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if len(col) <= shardSize || pool.Workers() == 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Single(col, card), nil
	}
	sb := newShardBuilder(pool.Workers(), len(col), shardSize)
	return sb.build(ctx, pool, col, card)
}

// ForAttrsCachedSharded is ForAttrsCachedStats with the build and
// refinement steps running sharded on the pool: an exact cache hit
// returns the cached partition, otherwise the walk down the
// ascending-attribute prefix chain materializes each missing prefix
// through SingleSharded/RefineSharded and publishes it. Results are
// byte-identical to the serial walk, so cache contents stay
// interchangeable between the two paths.
func ForAttrsCachedSharded(ctx context.Context, pool *engine.Pool, c *Cache, x bitset.Set, cols [][]int32, cards []int, shardSize int) (*Partition, bool, error) {
	if c == nil {
		p, err := ForAttrsSharded(ctx, pool, x, cols, cards, shardSize)
		return p, false, err
	}
	if p := c.lookup(x); p != nil {
		c.hits.Add(1)
		return p, true, ctx.Err()
	}
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	attrs := x.Attrs()
	if len(attrs) == 0 {
		return fullPartition(nrows), false, ctx.Err()
	}
	p, prefix := c.LongestPrefix(x)
	k := 0
	if p != nil {
		k = prefix.Count()
	} else {
		prefix = x.Clone()
		prefix.Clear()
		a := attrs[0]
		var err error
		if p, err = SingleSharded(ctx, pool, cols[a], cards[a], shardSize); err != nil {
			return nil, false, err
		}
		prefix.Add(a)
		c.Put(prefix, p)
		k = 1
	}
	if k == len(attrs) {
		return p, false, nil
	}
	for _, a := range attrs[k:] {
		prefix.Add(a)
		if len(p.Clusters) > 0 {
			var err error
			if p, err = RefineSharded(ctx, pool, p, cols[a], cards[a], shardSize); err != nil {
				return nil, false, err
			}
		}
		c.Put(prefix, p)
	}
	return p, false, nil
}
