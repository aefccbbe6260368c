package partition

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/engine"
)

// buildSingles builds π_A for every attribute in attrs with Single, one
// pool item per attribute: the columns are independent, so they are the
// parallel unit at every width and relation size. Results are returned
// in attrs order; on cancellation or a pool failure (an injected
// partition.build fault surfaces as the pool's typed error) the partial
// results carry nil for unbuilt attributes alongside the error.
func buildSingles(ctx context.Context, pool *engine.Pool, attrs []int, cols [][]int32, cards []int) ([]*Partition, error) {
	out := make([]*Partition, len(attrs))
	if len(attrs) == 0 {
		return out, nil
	}
	err := pool.Run(ctx, len(attrs), func(_, i int) {
		out[i] = Single(cols[attrs[i]], cards[attrs[i]])
	})
	return out, err
}

// Singles computes the single-attribute partitions of every column
// through the cache: hits are charged to the budget as cache-resident
// bytes, misses build through buildSingles (one Single per column, fanned
// out over the pool), are charged as materialized partitions and
// published to the cache. It is the shared PLI bootstrap of the
// partition-based drivers. Returns the partitions in column order plus
// the number built (the driver's PartitionsBuilt delta). On cancellation
// the partial results carry nil for unbuilt columns alongside the error.
//
// The int parameter is ignored: it was the row-shard size of a bootstrap
// that sharded each column, and it stays only because the benchmark
// harness in cmd/fdperf calls Singles with it. Pass 0.
func Singles(ctx context.Context, pool *engine.Pool, cols [][]int32, cards []int, _ int, cache *Cache, budget *Budget) ([]*Partition, int, error) {
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
	built, err := buildSingles(ctx, pool, missing, cols, cards)
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
