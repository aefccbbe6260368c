package partition

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// TestBuildSinglesByteIdentical pins the bootstrap's contract: for every
// benchmark relation, under a serial pool and pools narrower and wider
// than the column count, the compact form — backing array and offsets —
// of every column matches Single byte for byte.
func TestBuildSinglesByteIdentical(t *testing.T) {
	for _, b := range dataset.All() {
		r := b.Generate(233, 0)
		want := make([]*Partition, r.NumCols())
		attrs := make([]int, r.NumCols())
		for c := range want {
			want[c] = Single(r.Cols[c], r.Cards[c])
			attrs[c] = c
		}
		for _, workers := range []int{1, 3, 8} {
			got, err := buildSingles(context.Background(), engine.NewPool(workers), attrs, r.Cols, r.Cards)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", b.Name, workers, err)
			}
			for c := range got {
				assertSameCompact(t, fmt.Sprintf("%s workers=%d", b.Name, workers), c, want[c], got[c])
			}
		}
	}
}

func assertSameCompact(t *testing.T, name string, col int, want, got *Partition) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s col %d: nil partition", name, col)
	}
	if got.NRows != want.NRows || !got.IsCompact() {
		t.Fatalf("%s col %d: NRows=%d compact=%v, want NRows=%d compact",
			name, col, got.NRows, got.IsCompact(), want.NRows)
	}
	if len(got.backing) != len(want.backing) || len(got.offsets) != len(want.offsets) {
		t.Fatalf("%s col %d: backing/offsets len %d/%d, want %d/%d",
			name, col, len(got.backing), len(got.offsets), len(want.backing), len(want.offsets))
	}
	for i := range want.backing {
		if got.backing[i] != want.backing[i] {
			t.Fatalf("%s col %d: backing[%d] = %d, want %d", name, col, i, got.backing[i], want.backing[i])
		}
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s col %d: offsets[%d] = %d, want %d", name, col, i, got.offsets[i], want.offsets[i])
		}
	}
}

func TestBuildSinglesEdgeCases(t *testing.T) {
	pool := engine.NewPool(2)
	ctx := context.Background()

	// Empty attribute list.
	if out, err := buildSingles(ctx, pool, nil, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty attrs: %v, %v", out, err)
	}
	// Empty column with the cardinality clamp (card 0): same empty
	// compact partition as Single.
	out, err := buildSingles(ctx, pool, []int{0}, [][]int32{{}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, "empty", 0, Single(nil, 0), out[0])
	// Constant column, all-singleton column.
	cols := [][]int32{{0, 0, 0, 0, 0}, {0, 1, 2, 3, 4}}
	cards := []int{1, 5}
	out, err = buildSingles(ctx, pool, []int{0, 1}, cols, cards)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, "constant", 0, Single(cols[0], cards[0]), out[0])
	assertSameCompact(t, "allunique", 1, Single(cols[1], cards[1]), out[1])
}

func TestBuildSinglesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := make([]int32, 100)
	_, err := buildSingles(ctx, engine.NewPool(2), []int{0}, [][]int32{col}, []int{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildSinglesFaultParity pins the fault-site accounting: one
// partition.build hit per built attribute, matching Single. The hit
// fires inside the attribute's pool item, so an injection surfaces as
// the pool's typed error, attributed to the site, with the attributes
// built before it intact.
func TestBuildSinglesFaultParity(t *testing.T) {
	col := []int32{0, 1, 0, 1, 2, 2, 0, 1, 2, 0}
	cols := [][]int32{col, col}
	cards := []int{3, 3}

	// Nth-hit error plans double as hit counters: a plan at N fires only
	// if the site is hit at least N times.
	defer faults.Reset()
	faults.Arm(faults.PartitionBuild, faults.Plan{Kind: faults.KindError, N: 2})
	out, err := buildSingles(context.Background(), engine.NewPool(1), []int{0, 1}, cols, cards)
	if faults.Armed(faults.PartitionBuild) {
		t.Fatal("partition.build hit fewer than 2 times for 2 attributes")
	}
	var perr *engine.PanicError
	if !errors.As(err, &perr) || faults.SiteOf(err) != faults.PartitionBuild {
		t.Fatalf("err = %v, want a *PanicError carrying the partition.build injection", err)
	}
	if out[0] == nil || out[1] != nil {
		t.Fatalf("partial results = %v, want the first attribute built and the second nil", out)
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
	parts, built, err := Singles(ctx, pool, cols, cards, 0, cache, budget)
	if err != nil || built != 2 {
		t.Fatalf("cold Singles: built=%d err=%v", built, err)
	}
	for c, p := range parts {
		assertSameCompact(t, "singles", c, Single(cols[c], cards[c]), p)
	}
	if budget.Partitions() != 2 {
		t.Fatalf("budget partitions = %d, want 2", budget.Partitions())
	}

	// Warm pass: everything served from cache, bytes re-charged.
	live0 := budget.LiveBytes()
	parts2, built2, err := Singles(ctx, pool, cols, cards, 0, cache, budget)
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
