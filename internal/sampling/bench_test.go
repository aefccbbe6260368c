package sampling

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/partition"
)

// BenchmarkRowOrder times the sorted-neighborhood order on a 5000×20
// relation of cardinality 8: building it (once per hybrid run) and
// ordering one cluster of every row from it (once per sampled cluster).
func BenchmarkRowOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	r := dataset.Random(rng, 5000, 20, 8)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewRowOrder(r)
		}
	})
	b.Run("cluster", func(b *testing.B) {
		order := NewRowOrder(r)
		cluster := make([]int32, r.NumRows())
		for i := range cluster {
			cluster[i] = int32(i)
		}
		sorted := make([]int32, len(cluster))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			order.sort(cluster, sorted)
		}
	})
}

// BenchmarkClusterNeighborSample runs the full sorted-neighborhood pass
// over the clusters of a low-cardinality column, from an order built
// once outside the loop.
func BenchmarkClusterNeighborSample(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	r := dataset.Random(rng, 4000, 16, 6)
	order := NewRowOrder(r)
	ps := []*partition.Partition{partition.Single(r.Cols[0], r.Cards[0])}
	ctx, pool := context.Background(), engine.NewPool(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewNonFDSet(r.NumCols())
		if _, _, err := ClusterNeighborSample(ctx, pool, r, order, ps, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClusterNeighborSampleAllocsPerRun pins serial as the one-worker
// case of the sampling entry point: on a one-worker pool its items — the
// partitions — run the kernel straight into dst, so
// it allocates no more than the kernel itself on one weather column.
// Every run samples into a fresh set built beforehand, so the count is
// the pass's own: a set built inside the measured call would add its
// header, which the entry point lets escape through the fanned-out merge.
// The row order is built once, outside both calls, as a run builds it;
// an entry point that rebuilt it per call would allocate two row arrays
// more than the kernel.
func TestClusterNeighborSampleAllocsPerRun(t *testing.T) {
	b, err := dataset.ByName("weather")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(4000, 12)
	order := NewRowOrder(r)
	p := partition.Single(r.Cols[0], r.Cards[0])
	ps := []*partition.Partition{p}
	ctx, pool := context.Background(), engine.NewPool(1)
	const runs = 10
	dsts := make([]*NonFDSet, 2*(runs+1)) // AllocsPerRun calls once more to warm up
	for i := range dsts {
		dsts[i] = NewNonFDSet(r.NumCols())
	}
	next := func() *NonFDSet {
		d := dsts[0]
		dsts = dsts[1:]
		return d
	}
	kernel := func() { sampleClusters(r, order, p.Clusters, 1, next()) }
	entry := func() {
		if _, _, err := ClusterNeighborSample(ctx, pool, r, order, ps, 1, next()); err != nil {
			t.Fatal(err)
		}
	}
	want := testing.AllocsPerRun(runs, kernel)
	if got := testing.AllocsPerRun(runs, entry); got > want {
		t.Errorf("ClusterNeighborSample allocs/run = %.0f, want <= %.0f (kernel)", got, want)
	}
}

// BenchmarkNonRedundant reduces a large agree-set collection to its
// non-redundant cover, the FDEP1 preprocessing step.
func BenchmarkNonRedundant(b *testing.B) {
	const n = 30
	rng := rand.New(rand.NewSource(73))
	base := make([]bitset.Set, 0, 1500)
	seen := map[string]bool{}
	for len(base) < cap(base) {
		s := bitset.New(n)
		for a := 0; a < n; a++ {
			if rng.Intn(3) != 0 {
				s.Add(a)
			}
		}
		if k := s.Key(); !seen[k] && s.Count() < n {
			seen[k] = true
			base = append(base, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &NonFDSet{n: n, sets: append([]bitset.Set(nil), base...)}
		s.NonRedundant()
	}
}
