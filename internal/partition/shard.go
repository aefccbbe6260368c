package partition

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// DefaultShardSize is the row count of one shard in the sharded
// single-attribute builder: large enough that per-shard fixed costs
// (group lists, pool items) amortize away, small enough that a shard's
// counting-sort scratch stays cache-resident.
const DefaultShardSize = 1 << 16

// buildSingles builds π_A for every attribute in attrs, sharding each
// column row-wise into shardSize-row blocks that group concurrently on
// the pool (shardSize <= 0 selects DefaultShardSize). Unlike the other
// entry points it shards any column longer than one shard even on a
// one-worker pool. The results are byte-identical to Single's — same
// compact backing, same cluster order — because the merge reproduces
// Single's layout law exactly: clusters in ascending code order, rows
// ascending within each cluster. Results are returned in attrs order; on
// cancellation (or an injected fault) the partial results carry nil for
// unbuilt attributes alongside the error.
//
// Each built attribute costs one partition.build fault-site hit, exactly
// like a Single call, and each shard scatter one partition.shardmerge
// hit; the pool's per-item supervision (engine.worker site, retry
// policy) wraps every shard item.
func buildSingles(ctx context.Context, pool *engine.Pool, attrs []int, cols [][]int32, cards []int, shardSize int) ([]*Partition, error) {
	out := make([]*Partition, len(attrs))
	if len(attrs) == 0 {
		return out, nil
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	nrows := len(cols[attrs[0]])
	if nrows <= shardSize {
		// One shard: the merge machinery degenerates to Single itself, so
		// parallelism comes from fanning out over the attributes instead.
		err := pool.Run(ctx, len(attrs), func(_, i int) {
			out[i] = Single(cols[attrs[i]], cards[attrs[i]])
		})
		return out, err
	}
	// Attributes run sequentially so scratch stays bounded by one column;
	// within an attribute the shards group and scatter concurrently.
	sb := newShardBuilder(pool.Workers(), nrows, shardSize)
	for i, a := range attrs {
		p, err := sb.build(ctx, pool, cols[a], cards[a])
		if err != nil {
			return out, err
		}
		out[i] = p
	}
	return out, nil
}

// Singles computes the single-attribute partitions of every column
// through the cache: hits are charged to the budget as cache-resident
// bytes, misses build through buildSingles (sharded, on the pool), are
// charged as materialized partitions and published to the cache. It is
// the shared PLI bootstrap of the partition-based drivers. Returns the
// partitions in column order plus the number built (the driver's
// PartitionsBuilt delta). On cancellation the partial results carry nil
// for unbuilt columns alongside the error.
func Singles(ctx context.Context, pool *engine.Pool, cols [][]int32, cards []int, shardSize int, cache *Cache, budget *Budget) ([]*Partition, int, error) {
	n := len(cols)
	parts := make([]*Partition, n)
	keys := make([]bitset.Set, n)
	missing := make([]int, 0, n)
	for c := 0; c < n; c++ {
		keys[c] = bitset.FromAttrs(n, c)
		if p := cache.Get(keys[c]); p != nil {
			parts[c] = p
			budget.ChargeBytes(Cost(p))
			continue
		}
		missing = append(missing, c)
	}
	built, err := buildSingles(ctx, pool, missing, cols, cards, shardSize)
	nbuilt := 0
	for j, c := range missing {
		p := built[j]
		if p == nil {
			continue
		}
		parts[c] = p
		budget.Charge(p)
		cache.Put(keys[c], p)
		nbuilt++
	}
	return parts, nbuilt, err
}

// shardBuilder holds the scratch of one sharded single-attribute build:
// per-worker counting-sort state for the group phase and per-shard group
// lists for the merge. One builder serves many attributes sequentially;
// scratch grows to the largest cardinality seen and is reused.
type shardBuilder struct {
	nrows  int
	size   int // rows per shard
	shards int

	counts  [][]int32 // per worker: code -> rows in the current shard
	touched [][]int32 // per worker: codes used by the current shard

	// Per-shard group phase output: the shard's rows grouped by code
	// (codes ascending, rows ascending within a code) plus the parallel
	// (code, count, global write offset) group list.
	rows    [][]int32
	codes   [][]int32
	cnts    [][]int32
	offs    [][]int32
	gcounts []int32 // code -> global count, then reused for nothing else
	starts  []int32 // code -> cluster start in the backing, -1 = stripped
}

func newShardBuilder(workers, nrows, size int) *shardBuilder {
	shards := (nrows + size - 1) / size
	return &shardBuilder{
		nrows:   nrows,
		size:    size,
		shards:  shards,
		counts:  make([][]int32, workers),
		touched: make([][]int32, workers),
		rows:    make([][]int32, shards),
		codes:   make([][]int32, shards),
		cnts:    make([][]int32, shards),
		offs:    make([][]int32, shards),
	}
}

func (sb *shardBuilder) grow(card int) {
	for w := range sb.counts {
		if len(sb.counts[w]) < card {
			sb.counts[w] = make([]int32, card)
		}
	}
	if len(sb.gcounts) < card {
		sb.gcounts = make([]int32, card)
		sb.starts = make([]int32, card)
	}
}

// build runs the three phases of one attribute: parallel per-shard
// grouping, a sequential prefix pass assigning every shard group its
// write offset inside its global cluster, and a parallel scatter into
// the disjoint backing ranges. The layout matches Single exactly.
func (sb *shardBuilder) build(ctx context.Context, pool *engine.Pool, col []int32, card int) (*Partition, error) {
	faults.Check(faults.PartitionBuild)
	if card < 1 {
		card = 1
	}
	sb.grow(card)

	// Phase 1: group each shard's rows by code. Re-running an item is
	// safe: the kernel rebuilds the shard's output from col alone and
	// leaves its worker counts cleared either way.
	err := pool.Run(ctx, sb.shards, func(w, s int) {
		lo := s * sb.size
		hi := lo + sb.size
		if hi > sb.nrows {
			hi = sb.nrows
		}
		codes, cnts, rows, touched := shardGroup(col, lo, hi, sb.counts[w], sb.touched[w][:0])
		sb.touched[w] = touched
		sb.codes[s], sb.cnts[s], sb.rows[s] = codes, cnts, rows
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: accumulate global counts in shard order, recording each
	// shard group's prefix offset within its cluster — rows of shard s
	// precede rows of shard s+1, keeping clusters in ascending row order.
	gcounts := sb.gcounts[:card]
	for v := range gcounts {
		gcounts[v] = 0
	}
	for s := 0; s < sb.shards; s++ {
		codes, cnts := sb.codes[s], sb.cnts[s]
		offs := sb.offs[s]
		if cap(offs) < len(codes) {
			offs = make([]int32, len(codes))
		}
		offs = offs[:len(codes)]
		for i, v := range codes {
			offs[i] = gcounts[v]
			gcounts[v] += cnts[i]
		}
		sb.offs[s] = offs
	}
	// Cluster starts exactly as Single computes them: ascending code
	// order, singletons stripped.
	starts := sb.starts[:card]
	total := int32(0)
	nclusters := 0
	for v, n := range gcounts {
		if n >= 2 {
			starts[v] = total
			total += n
			nclusters++
		} else {
			starts[v] = -1
		}
	}

	// Phase 3: scatter every shard's grouped rows into its disjoint
	// backing ranges. Writes are deterministic positions of deterministic
	// values, so a retried item rewrites identical bytes.
	backing := make([]int32, total)
	err = pool.Run(ctx, sb.shards, func(_, s int) {
		faults.Check(faults.PartitionShardMerge)
		shardScatter(sb.codes[s], sb.cnts[s], sb.offs[s], sb.rows[s], starts, backing)
	})
	if err != nil {
		return nil, err
	}
	pool.CountShards(int64(sb.shards), int64(len(backing)))

	offsets := make([]int32, 1, nclusters+1)
	for v := 0; v < card; v++ {
		if off := starts[v]; off >= 0 {
			offsets = append(offsets, off+gcounts[v])
		}
	}
	p := &Partition{NRows: sb.nrows}
	p.setCompact(backing, offsets)
	return p, nil
}

// shardGroup counting-sorts one shard: rows [lo, hi) of col are grouped
// by code with codes ascending and rows ascending within each code. The
// caller-owned counts scratch (len >= card, all zero) is left cleared;
// touched is the reusable distinct-code list. Returns the shard's
// ascending distinct codes, their per-code counts, the grouped global
// row ids, and the (possibly grown) touched scratch.
//
//fd:hotpath
//fd:shardkernel
func shardGroup(col []int32, lo, hi int, counts, touched []int32) (codes, cnts, rows, touchedOut []int32) {
	for _, v := range col[lo:hi] {
		if counts[v] == 0 {
			touched = append(touched, v)
		}
		counts[v]++
	}
	slices.Sort(touched)
	codes = make([]int32, len(touched))
	cnts = make([]int32, len(touched))
	copy(codes, touched)
	// Turn counts into local write cursors, preserving the counts in cnts.
	cursor := int32(0)
	for i, v := range codes {
		cnts[i] = counts[v]
		counts[v] = cursor
		cursor += cnts[i]
	}
	rows = make([]int32, hi-lo)
	for r := lo; r < hi; r++ {
		v := col[r]
		rows[counts[v]] = int32(r)
		counts[v]++
	}
	// Clear the scratch for the worker's next shard.
	for _, v := range codes {
		counts[v] = 0
	}
	return codes, cnts, rows, touched[:0]
}

// shardScatter copies one shard's grouped rows into the shared compact
// backing: group i of the shard lands at starts[codes[i]] + offs[i],
// its cluster's base plus the rows earlier shards contributed. Groups
// whose code is globally stripped (starts -1) are skipped.
//
//fd:hotpath
//fd:shardkernel
func shardScatter(codes, cnts, offs, rows []int32, starts, backing []int32) {
	cursor := int32(0)
	for i, v := range codes {
		n := cnts[i]
		if s := starts[v]; s >= 0 {
			copy(backing[s+offs[i]:s+offs[i]+n], rows[cursor:cursor+n])
		}
		cursor += n
	}
}
