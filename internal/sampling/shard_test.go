package sampling

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
)

// assertSameNonFDs compares two NonFDSets on contents AND insertion
// order — the fanned-out merges promise both, because induction order
// downstream depends on the order sets were first seen.
func assertSameNonFDs(t *testing.T, cell string, want, got *NonFDSet) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len = %d, want %d", cell, got.Len(), want.Len())
	}
	ws, gs := want.Sets(), got.Sets()
	for i := range ws {
		if !ws[i].Equal(gs[i]) {
			t.Fatalf("%s: set %d = %v, want %v", cell, i, gs[i], ws[i])
		}
	}
}

// TestClusterNeighborSampleShardedMatches pins serial as the one-worker
// case for the sampler: one ClusterNeighborSample call samples a list of
// 1, 2 or 8 partitions of every benchmark relation — singles of its
// columns, with an all-unique partition second, which has no clusters —
// at workers {1, 2, 4, 7}, and the set, its insertion order and the
// newNonFDs/comparisons counters must equal those of serial calls, one
// per partition, on a one-worker pool.
func TestClusterNeighborSampleShardedMatches(t *testing.T) {
	ctx := context.Background()
	serial := engine.NewPool(1)
	for _, b := range dataset.All() {
		r := b.Generate(521, 8)
		order := NewRowOrder(r)
		singles := make([]*partition.Partition, r.NumCols())
		for c := range singles {
			singles[c] = partition.Single(r.Cols[c], r.Cards[c])
		}
		unique := &partition.Partition{NRows: r.NumRows()}
		eight := []*partition.Partition{singles[0], unique}
		for c := 1; len(eight) < 8; c++ {
			eight = append(eight, singles[c%len(singles)])
		}
		lists := [][]*partition.Partition{singles[:1], eight[:2], eight}
		for _, ps := range lists {
			wantDst := NewNonFDSet(r.NumCols())
			wantComps := 0
			for c := range ps {
				_, comps, err := ClusterNeighborSample(ctx, serial, r, order, ps[c:c+1], 1, wantDst)
				if err != nil {
					t.Fatalf("%s partition %d: %v", b.Name, c, err)
				}
				wantComps += comps
			}
			for _, workers := range []int{1, 2, 4, 7} {
				cell := fmt.Sprintf("%s partitions=%d workers=%d", b.Name, len(ps), workers)
				dst := NewNonFDSet(r.NumCols())
				gotNew, gotComps, err := ClusterNeighborSample(ctx, engine.NewPool(workers), r, order, ps, 1, dst)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if gotNew != wantDst.Len() || gotComps != wantComps {
					t.Fatalf("%s: new/comps = %d/%d, want %d/%d", cell, gotNew, gotComps, wantDst.Len(), wantComps)
				}
				assertSameNonFDs(t, cell, wantDst, dst)
			}
		}
	}
}

// TestNegativeCoverShardedMatches is the same matrix for the all-pairs
// scan: on a random 120×4 relation NegativeCover's set contents and
// insertion order equal a plain double loop over all pairs at pool
// widths {1, 2, 3, 4, 7}, each of which cuts the rows into a different
// number of pair blocks.
func TestNegativeCoverShardedMatches(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(9)), 120, 4, 3)
	want := NewNonFDSet(r.NumCols())
	for i := 0; i < r.NumRows(); i++ {
		for j := i + 1; j < r.NumRows(); j++ {
			want.Add(AgreeSet(r, i, j, nil))
		}
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		got, err := NegativeCover(ctx, engine.NewPool(workers), r)
		if err != nil {
			t.Fatalf("negcover workers=%d: %v", workers, err)
		}
		assertSameNonFDs(t, fmt.Sprintf("negcover workers=%d", workers), want, got)
	}
}

// TestPairBlockStart pins the pair scan's block cut: blocks are
// contiguous, cover [0, n), and each holds within n−1 of the mean pair
// count — also with more blocks than rows and for n ∈ {0, 1, 2}.
func TestPairBlockStart(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 17, 120, 1001} {
		for _, blocks := range []int{1, 2, 3, 4, 8, 28, n + 5} {
			total := n * (n - 1) / 2
			if got := pairBlockStart(n, blocks, 0); got != 0 {
				t.Fatalf("n=%d blocks=%d: block 0 starts at %d", n, blocks, got)
			}
			if got := pairBlockStart(n, blocks, blocks); got != n {
				t.Fatalf("n=%d blocks=%d: end = %d, want %d", n, blocks, got, n)
			}
			for b := 0; b < blocks; b++ {
				lo, hi := pairBlockStart(n, blocks, b), pairBlockStart(n, blocks, b+1)
				if lo > hi {
					t.Fatalf("n=%d blocks=%d: block %d = [%d, %d)", n, blocks, b, lo, hi)
				}
				pairs := 0
				for i := lo; i < hi; i++ {
					pairs += n - i - 1
				}
				// |pairs − total/blocks| ≤ n−1, scaled by blocks.
				if dev := pairs*blocks - total; dev > max(n-1, 0)*blocks || -dev > max(n-1, 0)*blocks {
					t.Errorf("n=%d blocks=%d: block %d holds %d pairs, mean %.1f", n, blocks, b, pairs, float64(total)/float64(blocks))
				}
			}
		}
	}
}

// TestClusterNeighborSampleShardedPrefilled: the fanned-out merge into a
// dst that already holds sets must count only the genuinely new ones,
// exactly like the serial kernel against the same prefilled dst.
func TestClusterNeighborSampleShardedPrefilled(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(3)), 400, 5, 3)
	order := NewRowOrder(r)
	ps := []*partition.Partition{partition.Single(r.Cols[1], r.Cards[1]), partition.Single(r.Cols[2], r.Cards[2])}
	pool := engine.NewPool(3)

	seed := NewNonFDSet(r.NumCols())
	sampleClusters(r, order, partition.Single(r.Cols[0], r.Cards[0]).Clusters, 1, seed)

	want := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		want.Add(x)
	}
	wantComps := 0
	for _, p := range ps {
		wantComps += sampleClusters(r, order, p.Clusters, 2, want)
	}
	wantNew := want.Len() - seed.Len()

	got := NewNonFDSet(r.NumCols())
	for _, x := range seed.Sets() {
		got.Add(x)
	}
	gotNew, gotComps, err := ClusterNeighborSample(ctx, pool, r, order, ps, 2, got)
	if err != nil {
		t.Fatal(err)
	}
	if gotNew != wantNew || gotComps != wantComps {
		t.Fatalf("new/comps = %d/%d, want %d/%d", gotNew, gotComps, wantNew, wantComps)
	}
	assertSameNonFDs(t, "prefilled", want, got)
}

// TestSamplingShardMergeFault pins the sampling.shardmerge site: an
// armed error plan firing during reconciliation surfaces as an
// injection-marked error from the fanned-out pass, and the one-worker
// pass never hits the site.
func TestSamplingShardMergeFault(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(5)), 300, 4, 2)
	order := NewRowOrder(r)
	ps := []*partition.Partition{partition.Single(r.Cols[0], r.Cards[0]), partition.Single(r.Cols[1], r.Cards[1])}
	pool := engine.NewPool(2)

	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic, N: 2})()
	dst := NewNonFDSet(r.NumCols())
	_, _, err := ClusterNeighborSample(ctx, pool, r, order, ps, 1, dst)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if faults.Armed(faults.SamplingShardMerge) {
		t.Fatal("plan did not fire")
	}

	// The serial pass never touches the site: an armed plan stays armed.
	defer faults.Arm(faults.SamplingShardMerge, faults.Plan{Kind: faults.KindPanic})()
	if _, _, err := ClusterNeighborSample(ctx, engine.NewPool(1), r, order, ps, 1, NewNonFDSet(r.NumCols())); err != nil {
		t.Fatal(err)
	}
	if _, err := NegativeCover(ctx, engine.NewPool(1), r); err != nil {
		t.Fatal(err)
	}
	if !faults.Armed(faults.SamplingShardMerge) {
		t.Fatal("serial pass hit the shard-merge site")
	}
	faults.Disarm(faults.SamplingShardMerge)
}

// TestSamplingShardStats: both passes, fanned out, report their items as
// shards through the pool.
func TestSamplingShardStats(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(17)), 400, 4, 2)
	order := NewRowOrder(r)
	ps := make([]*partition.Partition, r.NumCols())
	for c := range ps {
		ps[c] = partition.Single(r.Cols[c], r.Cards[c])
	}
	pool := engine.NewPool(2)
	dst := NewNonFDSet(r.NumCols())
	if _, _, err := ClusterNeighborSample(ctx, pool, r, order, ps, 1, dst); err != nil {
		t.Fatal(err)
	}
	if shards, _ := pool.ShardStats(); shards != int64(len(ps)) {
		t.Fatalf("sample shards = %d, want %d (one per partition)", shards, len(ps))
	}
	pool = engine.NewPool(2)
	if _, err := NegativeCover(ctx, pool, r); err != nil {
		t.Fatal(err)
	}
	if shards, _ := pool.ShardStats(); shards != 2*pairBlocksPerWorker {
		t.Fatalf("pair-scan shards = %d, want %d", shards, 2*pairBlocksPerWorker)
	}
}
