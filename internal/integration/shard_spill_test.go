package integration

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	dhyfd "repro"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/runstate"
)

// pliAlgorithms are the drivers that build multi-attribute partitions
// through the range-cut walk, and whose bootstrap builds every
// single-attribute partition through partition.Singles. DFD bootstraps
// only when a cache is attached (its prewarm), so its runs below add one.
var pliAlgorithms = []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD}

// pliOpts builds the option set for one two-worker run.
func pliOpts(a dhyfd.Algorithm) []dhyfd.Option {
	opts := []dhyfd.Option{dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2)}
	if a == dhyfd.DFD {
		opts = append(opts, dhyfd.WithPartitionCache(16<<20))
	}
	return opts
}

// TestShardSizeCoverEquivalence asserts cutting partitions into cluster
// ranges is purely an execution strategy: on two workers, every range
// size — one row per range, tiny, medium, larger than the relation —
// cuts the walks' refinements and the hybrids' sampling differently, yet
// discovers the identical cover as the default size.
func TestShardSizeCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()

	for _, a := range pliAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			base := coverOf(runDriver(ctx, a, r, runstate.Options{Workers: 2}))
			for _, shardSize := range []int{1, 7, 64, r.NumRows(), r.NumRows() + 13} {
				fds, _, err := runDriver(ctx, a, r, runstate.Options{Workers: 2, ShardSize: shardSize})
				if err != nil {
					t.Fatalf("shard size %d: %v", shardSize, err)
				}
				if !dep.Equal(fds, base) {
					t.Errorf("shard size %d changed the cover: %d vs %d FDs",
						shardSize, len(fds), len(base))
				}
			}
		})
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
			resident, err := dhyfd.Discover(ctx, r, pliOpts(a)...)
			if err != nil {
				t.Fatalf("resident run failed: %v", err)
			}
			opts := append(pliOpts(a),
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
