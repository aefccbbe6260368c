package sampling

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
)

// assertSameNonFDs compares two NonFDSets on contents AND insertion
// order — the sharded merges promise both, because induction order
// downstream depends on the order sets were first seen.
func assertSameNonFDs(t *testing.T, name string, shardSize int, want, got *NonFDSet) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s shard=%d: Len = %d, want %d", name, shardSize, got.Len(), want.Len())
	}
	ws, gs := want.Sets(), got.Sets()
	for i := range ws {
		if !ws[i].Equal(gs[i]) {
			t.Fatalf("%s shard=%d: set %d = %v, want %v", name, shardSize, i, gs[i], ws[i])
		}
	}
}

// TestClusterNeighborSampleShardedMatches pins serial as the one-worker
// case for the sampler: ClusterNeighborSample takes the initial sample of
// every benchmark relation (its first eight columns, one distance-1 pass
// per column into one set) at workers {1, 2, 4} × shard sizes spanning
// degenerate (1 row per shard), prime-unaligned (7), typical (64) and
// past the whole relation (nrows+13), and the merged set, its insertion
// order and the newNonFDs/comparisons counters must equal sampleClusters'
// exactly.
func TestClusterNeighborSampleShardedMatches(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		r := b.Generate(521, 8)
		singles := make([]*partition.Partition, r.NumCols())
		wantDst := NewNonFDSet(r.NumCols())
		wantNew := make([]int, r.NumCols())
		wantComps := make([]int, r.NumCols())
		for c := range singles {
			singles[c] = partition.Single(r.Cols[c], r.Cards[c])
			wantNew[c], wantComps[c] = sampleClusters(r, singles[c].Clusters, 1, wantDst)
		}
		for _, workers := range []int{1, 2, 4} {
			pool := engine.NewPool(workers)
			for _, shardSize := range []int{1, 7, 64, r.NumRows() + 13} {
				dst := NewNonFDSet(r.NumCols())
				for c, p := range singles {
					gotNew, gotComps, err := ClusterNeighborSample(ctx, pool, r, p, 1, dst, shardSize)
					if err != nil {
						t.Fatalf("%s col %d shard=%d workers=%d: %v", b.Name, c, shardSize, workers, err)
					}
					if gotNew != wantNew[c] || gotComps != wantComps[c] {
						t.Fatalf("%s col %d shard=%d workers=%d: new/comps = %d/%d, want %d/%d",
							b.Name, c, shardSize, workers, gotNew, gotComps, wantNew[c], wantComps[c])
					}
				}
				assertSameNonFDs(t, b.Name, shardSize, wantDst, dst)
			}
		}
	}
}

// TestNegativeCoverShardedMatches is the same matrix for the all-pairs
// scan: on a random 120×4 relation NegativeCover's set contents and
// insertion order equal negativeCover's at every (workers, shard size).
func TestNegativeCoverShardedMatches(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(9)), 120, 4, 3)
	want, err := negativeCover(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		pool := engine.NewPool(workers)
		for _, shardSize := range []int{1, 7, 64, r.NumRows() + 13} {
			got, err := NegativeCover(ctx, pool, r, shardSize)
			if err != nil {
				t.Fatalf("negcover shard=%d workers=%d: %v", shardSize, workers, err)
			}
			assertSameNonFDs(t, "negcover", shardSize, want, got)
		}
	}
}

// TestClusterNeighborSampleShardedPrefilled: the sharded merge into a
// dst that already holds sets must count only the genuinely new ones,
// exactly like the serial kernel against the same prefilled dst.
func TestClusterNeighborSampleShardedPrefilled(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(3)), 400, 5, 3)
	p := partition.Single(r.Cols[1], r.Cards[1])
	pool := engine.NewPool(3)

	seed := NewNonFDSet(r.NumCols())
	sampleClusters(r, partition.Single(r.Cols[0], r.Cards[0]).Clusters, 1, seed)

	want := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		want.Add(x)
	}
	wantNew, wantComps := sampleClusters(r, p.Clusters, 2, want)

	got := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		got.Add(x)
	}
	gotNew, gotComps, err := ClusterNeighborSample(ctx, pool, r, p, 2, got, 16)
	if err != nil {
		t.Fatal(err)
	}
	if gotNew != wantNew || gotComps != wantComps {
		t.Fatalf("new/comps = %d/%d, want %d/%d", gotNew, gotComps, wantNew, wantComps)
	}
	assertSameNonFDs(t, "prefilled", 16, want, got)
}

// TestSamplingShardMergeFault pins the sampling.shardmerge site: an
// armed error plan firing during reconciliation surfaces as an
// injection-marked error from the sharded pass, and the one-worker pass
// never hits the site.
func TestSamplingShardMergeFault(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(5)), 300, 4, 2)
	p := partition.Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)

	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic, N: 2})()
	dst := NewNonFDSet(r.NumCols())
	_, _, err := ClusterNeighborSample(ctx, pool, r, p, 1, dst, 8)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if faults.Armed(faults.SamplingShardMerge) {
		t.Fatal("plan did not fire")
	}

	// The serial pass never touches the site: an armed plan stays armed.
	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic})()
	if _, _, err := ClusterNeighborSample(ctx, engine.NewPool(1), r, p, 1, NewNonFDSet(r.NumCols()), 8); err != nil {
		t.Fatal(err)
	}
	if !faults.Armed(faults.SamplingShardMerge) {
		t.Fatal("serial sample hit the shard-merge site")
	}
	faults.Disarm(faults.SamplingShardMerge)
}

// TestSamplingShardStats: a genuinely sharded sample reports shard
// counts through the pool.
func TestSamplingShardStats(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(17)), 400, 4, 2)
	p := partition.Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)
	dst := NewNonFDSet(r.NumCols())
	if _, _, err := ClusterNeighborSample(ctx, pool, r, p, 1, dst, 16); err != nil {
		t.Fatal(err)
	}
	shards, _ := pool.ShardStats()
	if shards < 2 {
		t.Fatalf("shards = %d, want >= 2", shards)
	}
}
