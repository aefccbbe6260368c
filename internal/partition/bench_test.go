package partition

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
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
		rf.Refine(p, c, 50)
	}
}

func BenchmarkIntersect100k(b *testing.B) {
	a := randomColumn(100_000, 50, 1)
	c := randomColumn(100_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	probe := NewProbeTable(pc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(pa, probe)
	}
}

func BenchmarkRefineVsIntersect(b *testing.B) {
	// The micro-comparison behind the DDM: dynamic refinement vs the PLI
	// product TANE uses.
	a := randomColumn(50_000, 200, 1)
	c := randomColumn(50_000, 200, 2)
	pa, pc := Single(a, 200), Single(c, 200)
	b.Run("refine", func(b *testing.B) {
		rf := NewRefiner(200)
		for i := 0; i < b.N; i++ {
			rf.Refine(pa, c, 200)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		probe := NewProbeTable(pc)
		for i := 0; i < b.N; i++ {
			Intersect(pa, probe)
		}
	})
}

// TestIntersectorAllocsPerRun pins the allocation profile of the reused
// intersection kernel: after warm-up, one Intersect costs only its output
// (partition struct, backing, offsets, cluster views — plus bounded
// offsets growth), never a map or a per-call probe table.
func TestIntersectorAllocsPerRun(t *testing.T) {
	a := randomColumn(20_000, 50, 1)
	c := randomColumn(20_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	ix := NewIntersector()
	probe := NewProbeTable(pc)
	ix.Intersect(pa, probe) // warm scratch
	if got := testing.AllocsPerRun(10, func() { ix.Intersect(pa, probe) }); got > 4 {
		t.Errorf("Intersect allocs/run = %.0f, want <= 4", got)
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
		calls := []struct {
			name string
			call func()
		}{
			{"Refine", func() { Refine(pa, c, card) }},
			{"ForAttrs", func() { ForAttrs(x, cols, cards) }},
			{"RefineSharded", func() {
				if _, err := RefineSharded(ctx, pool, pa, c, card, 0); err != nil {
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

// TestProbeTableFillReuses: refilling an adequately sized probe table
// allocates nothing — the per-level reuse IntersectBatch relies on.
func TestProbeTableFillReuses(t *testing.T) {
	a := randomColumn(20_000, 50, 1)
	c := randomColumn(20_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	probe := NewProbeTable(pa)
	if got := testing.AllocsPerRun(10, func() { probe = probe.Fill(pc) }); got != 0 {
		t.Errorf("Fill allocs/run = %.0f, want 0", got)
	}
	want := NewProbeTable(pc)
	for i := range want {
		if probe[i] != want[i] {
			t.Fatalf("refilled probe differs at row %d", i)
		}
	}
}
