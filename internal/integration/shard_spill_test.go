package integration

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	dhyfd "repro"
	"repro/internal/check"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
)

// pliAlgorithms are the drivers whose bootstrap builds single-attribute
// partitions and therefore routes through the sharded builder. DFD only
// does so when a cache is attached (its prewarm), so its runs below add
// one.
var pliAlgorithms = []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD}

// shardOpts builds the option set for one sharded run.
func shardOpts(a dhyfd.Algorithm, shardSize int) []dhyfd.Option {
	opts := []dhyfd.Option{dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2)}
	if shardSize > 0 {
		opts = append(opts, dhyfd.WithShardSize(shardSize))
	}
	if a == dhyfd.DFD {
		opts = append(opts, dhyfd.WithPartitionCache(16<<20))
	}
	return opts
}

// TestShardSizeCoverEquivalence asserts the sharded bootstrap is purely
// an execution strategy: every shard size — one row per shard, tiny,
// medium, larger than the relation — discovers the identical cover.
func TestShardSizeCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()

	for _, a := range pliAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			base, err := dhyfd.Discover(ctx, r, shardOpts(a, 0)...)
			if err != nil {
				t.Fatalf("default-shard run failed: %v", err)
			}
			for _, shardSize := range []int{1, 7, 64, r.NumRows(), r.NumRows() + 13} {
				res, err := dhyfd.Discover(ctx, r, shardOpts(a, shardSize)...)
				if err != nil {
					t.Fatalf("shard size %d: %v", shardSize, err)
				}
				if !dep.Equal(res.FDs, base.FDs) {
					t.Errorf("shard size %d changed the cover: %d vs %d FDs",
						shardSize, len(res.FDs), len(base.FDs))
				}
			}
		})
	}
}

// TestChaosShardMerge arms the partition.shardmerge fault site under a
// shard size small enough that every bootstrap crosses it (300 rows, 16
// rows per shard): the fault must actually fire, a panic or error must
// surface typed from Discover, and whatever partial cover comes back
// must be sound.
func TestChaosShardMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()
	const shardSize = 16

	plans := []faults.Plan{
		{Kind: faults.KindPanic, N: 1},
		{Kind: faults.KindError, N: 1},
		{Kind: faults.KindError, N: 3},
	}
	for _, plan := range plans {
		for _, a := range pliAlgorithms {
			name := fmt.Sprintf("%v@%d/%v", plan.Kind, plan.N, a)
			t.Run(name, func(t *testing.T) {
				defer faults.Reset()
				faults.Arm(faults.PartitionShardMerge, plan)
				res, err := dhyfd.Discover(ctx, r, shardOpts(a, shardSize)...)
				if res == nil {
					t.Fatal("Discover returned a nil result")
				}
				if faults.Armed(faults.PartitionShardMerge) {
					t.Fatal("shard merge fault never fired despite 19 shards per attribute")
				}
				if err == nil {
					t.Fatal("fired shard-merge fault did not surface")
				}
				if !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("fired fault surfaced as untyped error %v", err)
				}
				if plan.Kind == faults.KindPanic {
					var perr *dhyfd.PanicError
					if !errors.As(err, &perr) {
						t.Fatalf("panic injection surfaced as %T, want *PanicError", err)
					}
				}
				for _, f := range res.FDs {
					if !check.Holds(r, f) {
						t.Errorf("unsound FD emitted: %v", f.Format(r.Names))
					}
				}
			})
		}
	}

	// An armed-but-unfired plan (the default shard size keeps the whole
	// relation in one shard, skipping the merge path) must leave the
	// cover untouched.
	base, err := dhyfd.Discover(ctx, r, shardOpts(dhyfd.DHyFD, 0)...)
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	defer faults.Reset()
	faults.Arm(faults.PartitionShardMerge, faults.Plan{Kind: faults.KindError, N: 1})
	res, err := dhyfd.Discover(ctx, r, shardOpts(dhyfd.DHyFD, 0)...)
	if err != nil {
		t.Fatalf("unfired run errored: %v", err)
	}
	if !faults.Armed(faults.PartitionShardMerge) {
		t.Fatal("single-shard bootstrap crossed the merge site unexpectedly")
	}
	if !dep.Equal(res.FDs, base.FDs) {
		t.Error("unfired fault changed the discovered cover")
	}
}

// TestSpillCoverMatchesResident forces the spill tier on with a cache far
// too small to keep anything resident and asserts it is purely a storage
// strategy: the cover matches the resident run's, spills and reloads
// actually happen, neither run degrades, the resident cache bytes never
// exceed the bound, the lattice walkers (TANE, DFD) spill more than the
// bound — their working set really left memory — and the run-private
// cache removes its temp files when the run ends.
func TestSpillCoverMatchesResident(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()
	dir := t.TempDir()
	const bound = 4096

	for _, a := range pliAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			resident, err := dhyfd.Discover(ctx, r, shardOpts(a, 0)...)
			if err != nil {
				t.Fatalf("resident run failed: %v", err)
			}
			opts := append(shardOpts(a, 0),
				dhyfd.WithPartitionCache(bound), // a few entries at most: everything else spills
				dhyfd.WithSpillDir(dir))
			res, err := dhyfd.Discover(ctx, r, opts...)
			if err != nil {
				t.Fatalf("spill run failed: %v", err)
			}
			if !dep.Equal(res.FDs, resident.FDs) {
				t.Errorf("spill tier changed the cover: %d vs %d FDs",
					len(res.FDs), len(resident.FDs))
			}
			if res.Stats.Counters["cache_spills"] == 0 {
				t.Error("spill run reported no spills")
			}
			if resident.Stats.Degraded || res.Stats.Degraded {
				t.Errorf("degraded: resident=%v spill=%v", resident.Stats.Degraded, res.Stats.Degraded)
			}
			if peak := res.Stats.Counters["cache_peak_bytes"]; peak > bound {
				t.Errorf("cache_peak_bytes = %d, above the %d-byte bound", peak, bound)
			}
			if a == dhyfd.TANE || a == dhyfd.DFD {
				if spilled := res.Stats.Counters["cache_spilled_bytes"]; spilled <= bound {
					t.Errorf("cache_spilled_bytes = %d, want above the %d-byte bound", spilled, bound)
				}
			}
		})
	}

	// The run-private spill caches must have cleaned up behind themselves.
	leftovers, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("spill temp files leaked: %v", leftovers)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("spill base dir should survive its runs: %v", err)
	}
}
