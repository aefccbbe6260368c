package partition

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// TestBuildSinglesByteIdentical pins the sharded builder's contract: for
// every benchmark relation and shard sizes spanning degenerate (1 row per
// shard), prime-unaligned (7), typical (64) and whole-relation (nrows),
// the compact form — backing array and offsets — matches Single byte for
// byte, under both a serial and a parallel pool.
func TestBuildSinglesByteIdentical(t *testing.T) {
	for _, b := range dataset.All() {
		r := b.Generate(233, 0)
		nrows := r.NumRows()
		want := make([]*Partition, r.NumCols())
		attrs := make([]int, r.NumCols())
		for c := range want {
			want[c] = Single(r.Cols[c], r.Cards[c])
			attrs[c] = c
		}
		for _, shardSize := range []int{1, 7, 64, nrows} {
			for _, workers := range []int{1, 3} {
				pool := engine.NewPool(workers)
				got, err := buildSingles(context.Background(), pool, attrs, r.Cols, r.Cards, shardSize)
				if err != nil {
					t.Fatalf("%s shard=%d workers=%d: %v", b.Name, shardSize, workers, err)
				}
				for c := range got {
					assertSameCompact(t, b.Name, shardSize, c, want[c], got[c])
				}
			}
		}
	}
}

func assertSameCompact(t *testing.T, name string, shardSize, col int, want, got *Partition) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s shard=%d col %d: nil partition", name, shardSize, col)
	}
	if got.NRows != want.NRows || !got.IsCompact() {
		t.Fatalf("%s shard=%d col %d: NRows=%d compact=%v, want NRows=%d compact",
			name, shardSize, col, got.NRows, got.IsCompact(), want.NRows)
	}
	if len(got.backing) != len(want.backing) || len(got.offsets) != len(want.offsets) {
		t.Fatalf("%s shard=%d col %d: backing/offsets len %d/%d, want %d/%d",
			name, shardSize, col, len(got.backing), len(got.offsets), len(want.backing), len(want.offsets))
	}
	for i := range want.backing {
		if got.backing[i] != want.backing[i] {
			t.Fatalf("%s shard=%d col %d: backing[%d] = %d, want %d",
				name, shardSize, col, i, got.backing[i], want.backing[i])
		}
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s shard=%d col %d: offsets[%d] = %d, want %d",
				name, shardSize, col, i, got.offsets[i], want.offsets[i])
		}
	}
}

func TestBuildSinglesEdgeCases(t *testing.T) {
	pool := engine.NewPool(2)
	ctx := context.Background()

	// Empty attribute list.
	if out, err := buildSingles(ctx, pool, nil, nil, nil, 4); err != nil || len(out) != 0 {
		t.Fatalf("empty attrs: %v, %v", out, err)
	}
	// Empty column: same empty compact partition as Single.
	out, err := buildSingles(ctx, pool, []int{0}, [][]int32{{}}, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, "empty", 4, 0, Single(nil, 0), out[0])
	// Cardinality clamp (card 0 on a 1-row column), multi-shard constant
	// column, all-singleton column.
	cols := [][]int32{{0, 0, 0, 0, 0}, {0, 1, 2, 3, 4}}
	cards := []int{1, 5}
	out, err = buildSingles(ctx, pool, []int{0, 1}, cols, cards, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, "constant", 2, 0, Single(cols[0], cards[0]), out[0])
	assertSameCompact(t, "allunique", 2, 1, Single(cols[1], cards[1]), out[1])
}

func TestBuildSinglesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := make([]int32, 100)
	_, err := buildSingles(ctx, engine.NewPool(2), []int{0}, [][]int32{col}, []int{1}, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildSinglesFaultParity pins the fault-site accounting: one
// partition.build hit per built attribute (matching Single) and one
// partition.shardmerge hit per shard scatter.
func TestBuildSinglesFaultParity(t *testing.T) {
	col := []int32{0, 1, 0, 1, 2, 2, 0, 1, 2, 0}
	cols := [][]int32{col, col}
	cards := []int{3, 3}

	// Nth-hit error plans double as hit counters: a plan at N fires only
	// if the site is hit at least N times. faults.Check panics with the
	// injection; buildSingles fires partition.build outside the pool
	// items (like Single does), so the driver-level recovery owns it —
	// absorb it here.
	defer faults.Reset()
	faults.Arm(faults.PartitionBuild, faults.Plan{Kind: faults.KindError, N: 2})
	func() {
		defer func() {
			if rec := recover(); faults.SiteOf(rec) != faults.PartitionBuild {
				t.Fatalf("recovered %v, want a partition.build injection", rec)
			}
		}()
		_, _ = buildSingles(context.Background(), engine.NewPool(1), []int{0, 1}, cols, cards, 3)
	}()
	if faults.Armed(faults.PartitionBuild) {
		t.Fatal("partition.build hit fewer than 2 times for 2 attributes")
	}

	faults.Reset()
	faults.Arm(faults.PartitionShardMerge, faults.Plan{Kind: faults.KindError, N: 4, Class: faults.ClassTransient})
	// 10 rows, shard size 3 -> 4 shards -> 4 scatter hits for one attribute.
	_, err := buildSingles(context.Background(), engine.NewPool(1), []int{0}, cols, cards, 3)
	if faults.Armed(faults.PartitionShardMerge) {
		t.Fatalf("partition.shardmerge hit fewer than 4 times for 4 shards (err %v)", err)
	}
	if err == nil {
		t.Fatal("fired shardmerge injection should surface as an error")
	}
}

func TestSinglesCacheAndBudget(t *testing.T) {
	col0 := []int32{0, 1, 0, 1, 2, 2}
	col1 := []int32{0, 0, 1, 1, 2, 2}
	cols := [][]int32{col0, col1}
	cards := []int{3, 3}
	pool := engine.NewPool(2)
	ctx := context.Background()

	budget := NewBudget(1<<20, -1)
	cache := NewCache(1<<20, budget)
	parts, built, err := Singles(ctx, pool, cols, cards, 2, cache, budget)
	if err != nil || built != 2 {
		t.Fatalf("cold Singles: built=%d err=%v", built, err)
	}
	for c, p := range parts {
		assertSameCompact(t, "singles", 2, c, Single(cols[c], cards[c]), p)
	}
	if budget.Partitions() != 2 {
		t.Fatalf("budget partitions = %d, want 2", budget.Partitions())
	}

	// Warm pass: everything served from cache, bytes re-charged.
	live0 := budget.LiveBytes()
	parts2, built2, err := Singles(ctx, pool, cols, cards, 2, cache, budget)
	if err != nil || built2 != 0 {
		t.Fatalf("warm Singles: built=%d err=%v", built2, err)
	}
	for c := range parts2 {
		if parts2[c] != parts[c] {
			t.Fatalf("warm Singles rebuilt column %d", c)
		}
	}
	if budget.LiveBytes() <= live0 {
		t.Fatal("warm hits should charge cache-resident bytes")
	}

	// Nil cache and budget are valid everywhere.
	parts3, built3, err := Singles(ctx, pool, cols, cards, 0, nil, nil)
	if err != nil || built3 != 2 || parts3[0] == nil {
		t.Fatalf("nil cache Singles: built=%d err=%v", built3, err)
	}
}
