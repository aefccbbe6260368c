package sampling

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
)

// This file holds the entry points of the agree-set passes. Each cuts
// its work into items listed in serial order — the sampled partitions,
// or blocks of outer rows of the pair scan — that collect runs.
// NonFDSet.Add keeps first occurrences in insertion order, so merging
// item-local sets in item order reproduces the serial set and its order,
// and the induced cover cannot depend on the width.

// pairBlocksPerWorker is how many pair-scan blocks each worker of a
// multi-worker pool gets, so workers stay busy when blocks of equal pair
// count take unequal time.
const pairBlocksPerWorker = 4

// ClusterNeighborSample samples agree sets from each cluster of the
// partitions ps, in order, using the sorted-neighborhood method: rows of
// a cluster are put in order's order — by their full code tuple, then by
// row — and each row is compared to its neighbor at the given window
// distance (distance 1 compares adjacent rows). order must rank r's rows;
// the caller builds it once per run (NewRowOrder), never per call.
// Results accumulate into dst; the number of *new* non-FDs and the number
// of comparisons are returned, identical at every worker count.
//
// The partitions are the items that fan out, one each; a one-worker pool,
// or a single partition, samples them in order on the calling goroutine.
// Either way the pass fires sampling.run once per call, on the calling
// goroutine.
func ClusterNeighborSample(ctx context.Context, pool *engine.Pool, r *relation.Relation, order *RowOrder, ps []*partition.Partition, distance int, dst *NonFDSet) (newNonFDs, comparisons int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	faults.Check(faults.SamplingRun)
	return collect(ctx, pool, len(ps), sample{r: r, order: order, ps: ps, distance: max(distance, 1)}, sampleItem, dst)
}

// NegativeCover computes the agree sets of all tuple pairs — the full
// negative cover FDEP and FastFDs derive their covers from — polling ctx
// once per outer row. On a pool of more than one worker the outer rows
// split into pairBlocksPerWorker contiguous blocks per worker of about
// equal pair count (pairBlockStart), which are the items that fan out; a
// one-worker pool scans all rows as one block. The resulting set and its
// insertion order are identical at every width.
func NegativeCover(ctx context.Context, pool *engine.Pool, r *relation.Relation) (*NonFDSet, error) {
	blocks := 1
	if w := pool.Workers(); w > 1 {
		blocks = pairBlocksPerWorker * w
	}
	dst := NewNonFDSet(r.NumCols())
	if _, _, err := collect(ctx, pool, blocks, pairScan{r: r, blocks: blocks}, coverBlock, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// collect runs the n items of one pass, item(ctx, s, i, set) adding the
// agree sets of item i to set and returning its comparisons, and leaves
// their agree sets in dst in item order; it returns how many were new to
// dst and the comparisons. On a one-worker pool, or for one item, the
// items add straight into dst. Otherwise each collects into an item-local
// set on a pool worker, and the locals merge into dst in item order as
// one pool item hitting sampling.shardmerge once per local, so a fault
// surfaces typed (Add is idempotent, so a retried merge is safe); the
// pool counts items as shards and merged local sets as rows. ctx is
// polled between items, and a cancelled pass returns its error. s travels
// beside item rather than inside a closure so that a one-worker pass
// allocates nothing its items do not.
func collect[S any](ctx context.Context, pool *engine.Pool, n int, s S, item func(context.Context, S, int, *NonFDSet) int, dst *NonFDSet) (newNonFDs, comparisons int, err error) {
	before := dst.Len()
	if pool.Workers() == 1 || n <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			comparisons += item(ctx, s, i, dst)
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		return dst.Len() - before, comparisons, nil
	}

	locals := make([]*NonFDSet, n)
	comps := make([]int, n)
	err = pool.Run(ctx, n, func(_, i int) {
		collectItem(ctx, s, item, i, dst.n, locals, comps)
	})
	if err != nil {
		return 0, 0, err
	}
	err = pool.Run(ctx, 1, func(_, _ int) {
		for _, local := range locals {
			faults.Check(faults.SamplingShardMerge)
			for _, x := range local.Sets() {
				dst.Add(x)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	rows := int64(0)
	for i, local := range locals {
		comparisons += comps[i]
		rows += int64(local.Len())
	}
	pool.CountShards(int64(n), rows)
	return dst.Len() - before, comparisons, nil
}

// collectItem is collect's phase-1 kernel: item i collects into a fresh
// set, and its only writes land in its disjoint locals[i] / comps[i]
// slots, which makes re-running it after a transient failure safe.
//
//fd:shardkernel
func collectItem[S any](ctx context.Context, s S, item func(context.Context, S, int, *NonFDSet) int, i, ncols int, locals []*NonFDSet, comps []int) {
	local := NewNonFDSet(ncols)
	comps[i] = item(ctx, s, i, local)
	locals[i] = local
}

// sample is the item list of one ClusterNeighborSample call: the
// partitions, one item each.
type sample struct {
	r        *relation.Relation
	order    *RowOrder
	ps       []*partition.Partition
	distance int
}

// sampleItem samples partition i of s into dst and returns its
// comparisons.
//
//fd:shardkernel
func sampleItem(_ context.Context, s sample, i int, dst *NonFDSet) int {
	return sampleClusters(s.r, s.order, s.ps[i], s.distance, dst)
}

// pairScan is the item list of one NegativeCover call: blocks contiguous
// blocks of outer rows.
type pairScan struct {
	r      *relation.Relation
	blocks int
}

// coverBlock adds the agree sets of each outer row i of block b with
// every later row to dst, in row order, and returns the pairs compared.
// It polls ctx once per outer row and stops once ctx is cancelled; collect
// then returns the error, so the partial set is never used.
//
//fd:shardkernel
func coverBlock(ctx context.Context, s pairScan, b int, dst *NonFDSet) int {
	n := s.r.NumRows()
	buf := bitset.New(s.r.NumCols())
	pairs := 0
	for i, hi := pairBlockStart(n, s.blocks, b), pairBlockStart(n, s.blocks, b+1); i < hi; i++ {
		if ctx.Err() != nil {
			return pairs
		}
		for j := i + 1; j < n; j++ {
			dst.Add(AgreeSet(s.r, i, j, buf))
		}
		pairs += n - i - 1
	}
	return pairs
}

// pairBlockStart returns the first outer row of block b when the n rows
// of an all-pairs scan split into contiguous blocks of about equal pair
// count. Row i pairs with the n−i−1 rows after it, so the rows before i
// hold P(i) = i·n − i(i+1)/2 pairs; block b starts at the smallest i with
// P(i) ≥ b/blocks of all pairs, and the end (b = blocks) is n. Each
// block's pair count is thus within n−1 of the mean.
func pairBlockStart(n, blocks, b int) int {
	if b >= blocks {
		return n
	}
	total := n * (n - 1) / 2
	return sort.Search(n, func(i int) bool {
		return (i*n-i*(i+1)/2)*blocks >= b*total
	})
}
