package partition

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// serialChain is the reference for the prefix-chain walk, built from
// the serial kernels alone: Single of attrs[0], then one Refiner.refine
// per further attribute, stopping once the partition is empty.
func serialChain(attrs []int, cols [][]int32, cards []int) *Partition {
	p := Single(cols[attrs[0]], cards[attrs[0]])
	for _, a := range attrs[1:] {
		if len(p.Clusters) == 0 {
			break
		}
		p = NewRefiner(cards[a]).refine(p, cols[a], cards[a])
	}
	return p
}

// entryInput is one relation of the partition equivalence table and the
// attribute sets walked on it.
type entryInput struct {
	name  string
	cols  [][]int32
	cards []int
	sets  []bitset.Set
}

// matchSerialKernels is the partition equivalence table, pinning serial
// as the one-worker case on one input: the Singles bootstrap runs at
// workers {1, 2, 4}, and the shard-aware entry points — refineSharded
// and the ForAttrsCached walk, uncached and cached — at those widths ×
// shard sizes spanning degenerate (1 row per shard), prime-unaligned
// (7), typical (64) and past the whole relation (nrows+13); every
// compact form (backing array and offsets) must match the serial
// kernels Single and Refiner.refine byte for byte. refineSharded refines π of each set's
// lowest attribute by its next one. The uncached walk starts from the
// smallest-error attribute (orderForRefine), the cached one walks
// ascending attributes, publishing every prefix, so a second pass is all
// exact hits.
func matchSerialKernels(t *testing.T, in entryInput) {
	t.Helper()
	ctx := context.Background()
	nrows := len(in.cols[0])
	for _, workers := range []int{1, 2, 4} {
		pool := engine.NewPool(workers)
		parts, built, err := Singles(ctx, pool, in.cols, in.cards, 0, nil, nil)
		if err != nil || built != len(in.cols) {
			t.Fatalf("%s workers=%d: Singles built %d, err %v", in.name, workers, built, err)
		}
		for c, p := range parts {
			assertSameCompact(t, fmt.Sprintf("%s/Singles workers=%d", in.name, workers), c, Single(in.cols[c], in.cards[c]), p)
		}
		for _, shardSize := range []int{1, 7, 64, nrows + 13} {
			cell := fmt.Sprintf("%s workers=%d shard=%d", in.name, workers, shardSize)
			cache := NewCache(1<<30, nil)
			for _, x := range in.sets {
				attrs := x.Attrs()
				a, b := attrs[0], attrs[1]
				parent := Single(in.cols[a], in.cards[a])
				got, err := refineSharded(ctx, pool, parent, in.cols[b], in.cards[b], shardSize)
				if err != nil {
					t.Fatalf("%s workers=%d shard=%d: refineSharded %d by %d: %v", in.name, workers, shardSize, a, b, err)
				}
				assertSameCompact(t, cell+"/refine", b, NewRefiner(in.cards[b]).refine(parent, in.cols[b], in.cards[b]), got)

				orderForRefine(attrs, in.cards, nrows)
				got, hit, err := ForAttrsCached(ctx, pool, nil, x, in.cols, in.cards, shardSize)
				if err != nil || hit {
					t.Fatalf("%s workers=%d shard=%d: uncached walk %v: hit=%v err=%v", in.name, workers, shardSize, x.Attrs(), hit, err)
				}
				assertSameCompact(t, cell+"/uncached", x.Count(), serialChain(attrs, in.cols, in.cards), got)

				got, hit, err = ForAttrsCached(ctx, pool, cache, x, in.cols, in.cards, shardSize)
				if err != nil || hit {
					t.Fatalf("%s workers=%d shard=%d: cached walk %v: hit=%v err=%v", in.name, workers, shardSize, x.Attrs(), hit, err)
				}
				assertSameCompact(t, cell+"/cached", x.Count(), serialChain(x.Attrs(), in.cols, in.cards), got)
			}
			for _, x := range in.sets {
				if _, hit, err := ForAttrsCached(ctx, pool, cache, x, in.cols, in.cards, shardSize); err != nil || !hit {
					t.Fatalf("%s workers=%d shard=%d: second pass %v: hit=%v err=%v", in.name, workers, shardSize, x.Attrs(), hit, err)
				}
			}
		}
	}
}

// TestRefineShardedByteIdentical runs the equivalence table on every
// benchmark relation with at least three of its first eight columns,
// walking its two and three lowest-cardinality columns: their clusters
// are the largest, so every refinement step has work to shard.
func TestRefineShardedByteIdentical(t *testing.T) {
	for _, b := range dataset.All() {
		r := b.Generate(419, 8)
		n := r.NumCols()
		if n < 3 {
			continue
		}
		byCard := make([]int, n)
		for a := range byCard {
			byCard[a] = a
		}
		sort.SliceStable(byCard, func(i, j int) bool { return r.Cards[byCard[i]] < r.Cards[byCard[j]] })
		matchSerialKernels(t, entryInput{b.Name, r.Cols, r.Cards, []bitset.Set{
			bitset.FromAttrs(n, byCard[:2]...),
			bitset.FromAttrs(n, byCard[:3]...),
		}})
	}
}

// TestForAttrsShardedMatches runs the equivalence table on a random
// 500×6 relation, walking sets of two, three and four attributes.
func TestForAttrsShardedMatches(t *testing.T) {
	r := dataset.Random(rand.New(rand.NewSource(7)), 500, 6, 8)
	matchSerialKernels(t, entryInput{"random", r.Cols, r.Cards, []bitset.Set{
		bitset.FromAttrs(6, 0, 1),
		bitset.FromAttrs(6, 1, 2, 3),
		bitset.FromAttrs(6, 0, 2, 4, 5),
	}})
}

// TestRefineShardedFault pins the partition.refineshard site: an armed
// plan firing in the stitch phase surfaces as a typed, injection-marked
// error from the sharded refinement, and the serial kernel never hits it.
func TestRefineShardedFault(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(11)), 300, 4, 3)
	parent := Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)

	defer faults.Arm(faults.PartitionRefineShard, faults.Plan{Kind: faults.KindPanic, N: 2})()
	_, err := refineSharded(ctx, pool, parent, r.Cols[1], r.Cards[1], 8)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *engine.PanicError", err)
	}
	if faults.Armed(faults.PartitionRefineShard) {
		t.Fatal("plan did not fire")
	}

	// The serial kernel never touches the site: an armed plan stays armed.
	defer faults.Arm(faults.PartitionRefineShard, faults.Plan{Kind: faults.KindPanic})()
	NewRefiner(r.Cards[1]).refine(parent, r.Cols[1], r.Cards[1])
	if !faults.Armed(faults.PartitionRefineShard) {
		t.Fatal("serial Refine hit the shard site")
	}
	faults.Disarm(faults.PartitionRefineShard)
}

// TestShardStatsCount pins the pool counters: a genuinely sharded
// refine reports its shard and scattered-row counts through
// Pool.ShardStats, and FoldShardStats lands them on RunStats.
func TestShardStatsCount(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(13)), 400, 3, 2)
	parent := Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)
	got, err := refineSharded(ctx, pool, parent, r.Cols[1], r.Cards[1], 16)
	if err != nil {
		t.Fatal(err)
	}
	shards, rows := pool.ShardStats()
	if shards < 2 {
		t.Fatalf("shards = %d, want >= 2", shards)
	}
	if rows != int64(got.Size()) {
		t.Fatalf("rows scattered = %d, want %d", rows, got.Size())
	}
	rs := engine.NewRunStats("test", 2)
	pool.FoldShardStats(rs)
	if rs.ShardsBuilt != shards || rs.RowsScattered != rows {
		t.Fatalf("RunStats = %d/%d, want %d/%d", rs.ShardsBuilt, rs.RowsScattered, shards, rows)
	}
}
