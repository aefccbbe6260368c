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

// TestClusterNeighborSampleShardedMatches pins the sharded sampler
// contract across the benchmark relations: at every shard size the
// merged set, its insertion order, and the newNonFDs/comparisons
// counters equal the serial pass exactly.
func TestClusterNeighborSampleShardedMatches(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		r := b.Generate(521, 0)
		p := partition.Single(r.Cols[0], r.Cards[0])
		wantDst := NewNonFDSet(r.NumCols())
		wantNew, wantComps := ClusterNeighborSample(r, p, 1, wantDst)
		for _, shardSize := range []int{1, 7, 64, 1 << 16, r.NumRows()} {
			for _, workers := range []int{1, 3} {
				pool := engine.NewPool(workers)
				dst := NewNonFDSet(r.NumCols())
				gotNew, gotComps, err := ClusterNeighborSampleSharded(ctx, pool, r, p, 1, dst, shardSize)
				if err != nil {
					t.Fatalf("%s shard=%d workers=%d: %v", b.Name, shardSize, workers, err)
				}
				if gotNew != wantNew || gotComps != wantComps {
					t.Fatalf("%s shard=%d workers=%d: new/comps = %d/%d, want %d/%d",
						b.Name, shardSize, workers, gotNew, gotComps, wantNew, wantComps)
				}
				assertSameNonFDs(t, b.Name, shardSize, wantDst, dst)
			}
		}
	}
}

// TestClusterNeighborSampleShardedPrefilled: merging into a dst that
// already holds sets must count only the genuinely new ones, exactly
// like the serial pass against the same prefilled dst.
func TestClusterNeighborSampleShardedPrefilled(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(3)), 400, 5, 3)
	p := partition.Single(r.Cols[1], r.Cards[1])
	pool := engine.NewPool(3)

	seed := NewNonFDSet(r.NumCols())
	ClusterNeighborSample(r, partition.Single(r.Cols[0], r.Cards[0]), 1, seed)

	want := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		want.Add(x)
	}
	wantNew, wantComps := ClusterNeighborSample(r, p, 2, want)

	got := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		got.Add(x)
	}
	gotNew, gotComps, err := ClusterNeighborSampleSharded(ctx, pool, r, p, 2, got, 16)
	if err != nil {
		t.Fatal(err)
	}
	if gotNew != wantNew || gotComps != wantComps {
		t.Fatalf("new/comps = %d/%d, want %d/%d", gotNew, gotComps, wantNew, wantComps)
	}
	assertSameNonFDs(t, "prefilled", 16, want, got)
}

// TestNegativeCoverShardedMatches pins the sharded all-pairs scan: set
// contents and insertion order equal the serial scan at every shard size.
func TestNegativeCoverShardedMatches(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(9)), 120, 4, 3)
	want, err := negativeCover(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSize := range []int{1, 7, 50, r.NumRows()} {
		for _, workers := range []int{1, 3} {
			pool := engine.NewPool(workers)
			got, err := NegativeCoverSharded(ctx, pool, r, shardSize)
			if err != nil {
				t.Fatalf("shard=%d workers=%d: %v", shardSize, workers, err)
			}
			assertSameNonFDs(t, "negcover", shardSize, want, got)
		}
	}
}

// TestSamplingShardMergeFault pins the sampling.shardmerge site: an
// armed error plan firing during reconciliation surfaces as an
// injection-marked error from the sharded pass, and the serial pass
// never hits the site.
func TestSamplingShardMergeFault(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(5)), 300, 4, 2)
	p := partition.Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)

	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic, N: 2})()
	dst := NewNonFDSet(r.NumCols())
	_, _, err := ClusterNeighborSampleSharded(ctx, pool, r, p, 1, dst, 8)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if faults.Armed(faults.SamplingShardMerge) {
		t.Fatal("plan did not fire")
	}

	// The serial pass never touches the site: an armed plan stays armed.
	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic})()
	ClusterNeighborSample(r, p, 1, NewNonFDSet(r.NumCols()))
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
	if _, _, err := ClusterNeighborSampleSharded(ctx, pool, r, p, 1, dst, 16); err != nil {
		t.Fatal(err)
	}
	shards, _ := pool.ShardStats()
	if shards < 2 {
		t.Fatalf("shards = %d, want >= 2", shards)
	}
}
