package partition

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
)

func randomColumn(n, card int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	return col
}

func BenchmarkSingle100k(b *testing.B) {
	col := randomColumn(100_000, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Single(col, 1000)
	}
}

func BenchmarkRefine100k(b *testing.B) {
	a := randomColumn(100_000, 50, 1)
	c := randomColumn(100_000, 50, 2)
	p := Single(a, 50)
	rf := NewRefiner(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf.refine(p, c, 50)
	}
}

// TestRefineAllocsPerRun pins the pooled refine scratch: after one warm
// call, each one-shot refine entry point pays for its output and a few
// headers, never for a card-sized bucket table or buckets grown from nil,
// at low and high cardinality alike.
func TestRefineAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	ctx := context.Background()
	pool := engine.NewPool(1)
	for _, card := range []int{50, 20_000} {
		a := randomColumn(20_000, card, 1)
		c := randomColumn(20_000, card, 2)
		pa := Single(a, card)
		x := bitset.FromAttrs(2, 0, 1)
		cols, cards := [][]int32{a, c}, []int{card, card}
		jobs := []RefineJob{{Part: pa, Attrs: []int{1}}}
		calls := []struct {
			name string
			call func()
		}{
			{"Refine", func() { Refine(pa, c, card) }},
			{"ForAttrs", func() { ForAttrs(x, cols, cards) }},
			{"refineSharded", func() {
				if _, err := refineSharded(ctx, pool, pa, c, card, 0); err != nil {
					t.Fatal(err)
				}
			}},
			{"RefineBatch", func() {
				if _, err := RefineBatch(ctx, pool, cols, cards, jobs); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, tc := range calls {
			tc.call() // warm the pooled scratch
			if got := testing.AllocsPerRun(10, tc.call); got > 16 {
				t.Errorf("card %d: %s allocs/run = %.0f, want <= 16", card, tc.name, got)
			}
		}
	}
}

// TestForAttrsCachedAllocsPerRun pins serial as the one-worker case of
// the merged walk: on a one-worker pool an uncached ForAttrsCached runs
// the serial kernels directly, cutting no shard ranges, so it allocates
// no more than the context-free ForAttrs on the same input.
func TestForAttrsCachedAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	ctx := context.Background()
	pool := engine.NewPool(1)
	cols := [][]int32{randomColumn(10_000, 40, 1), randomColumn(10_000, 30, 2), randomColumn(10_000, 20, 3)}
	cards := []int{40, 30, 20}
	x := bitset.FromAttrs(3, 0, 1, 2)
	serial := func() { ForAttrs(x, cols, cards) }
	merged := func() {
		if _, _, err := ForAttrsCached(ctx, pool, nil, x, cols, cards, 0); err != nil {
			t.Fatal(err)
		}
	}
	serial() // warm the pooled scratch
	merged()
	want := testing.AllocsPerRun(10, serial)
	if got := testing.AllocsPerRun(10, merged); got > want {
		t.Errorf("ForAttrsCached allocs/run = %.0f, want <= %.0f (ForAttrs)", got, want)
	}
}

// BenchmarkSingles times the PLI bootstrap — every column of ncvoter
// 400k × 12 built uncached through Singles — at pool widths 1 and 2.
func BenchmarkSingles(b *testing.B) {
	bm, err := dataset.ByName("ncvoter")
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(400_000, 12)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("ncvoter-400000x12/workers=%d", workers), func(b *testing.B) {
			pool := engine.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Singles(ctx, pool, r.Cols, r.Cards, 0, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
