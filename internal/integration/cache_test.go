package integration

import (
	"context"
	"math/rand"
	"testing"

	dhyfd "repro"
	"repro/internal/check"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
)

// TestPLICacheMatrix runs every algorithm of the chaos matrix with and
// without a PLI cache and asserts the cache is purely an optimization:
// the discovered cover is identical, and the algorithms that route
// through the cache actually traffic it.
func TestPLICacheMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()

	// Algorithms wired through the cache; the row-based ones (FDEP2,
	// FastFDs) hold no partitions and must simply be unaffected.
	cached := map[dhyfd.Algorithm]bool{
		dhyfd.DHyFD: true, dhyfd.HyFD: true, dhyfd.TANE: true, dhyfd.DFD: true,
	}
	for _, a := range chaosAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			plain, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
			if err != nil {
				t.Fatalf("uncached run failed: %v", err)
			}
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
				dhyfd.WithPartitionCache(16<<20))
			if err != nil {
				t.Fatalf("cached run failed: %v", err)
			}
			if !dep.Equal(res.FDs, plain.FDs) {
				t.Errorf("cache changed the cover: %d vs %d FDs", len(res.FDs), len(plain.FDs))
			}
			traffic := res.Stats.CacheHits + res.Stats.CacheMisses
			if cached[a] && traffic == 0 {
				t.Errorf("%v reported no cache traffic", a)
			}
			if !cached[a] && traffic != 0 {
				t.Errorf("%v is not cache-wired but reported traffic %d", a, traffic)
			}
		})
	}
}

// TestPLICacheTinyBudgetDegradesGracefully: a cache too small to hold
// anything useful must thrash (evictions) without changing the cover and
// without flagging the run degraded — the cache yields, the run proceeds.
func TestPLICacheTinyBudgetDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := dataset.Random(rng, 250, 6, 3)
	ctx := context.Background()
	for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.TANE, dhyfd.DFD} {
		t.Run(a.String(), func(t *testing.T) {
			plain, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a))
			if err != nil {
				t.Fatal(err)
			}
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a),
				dhyfd.WithPartitionCache(256)) // a couple of tiny partitions at most
			if err != nil {
				t.Fatal(err)
			}
			if !dep.Equal(res.FDs, plain.FDs) {
				t.Error("tiny cache changed the cover")
			}
			if res.Stats.Degraded {
				t.Errorf("tiny cache flagged the run degraded: %s", res.Stats.DegradedReason)
			}
		})
	}
}

// TestPLICacheUnderMemoryBudget: with both a run budget and a cache, the
// cache must never be the reason a run degrades, and whatever cover comes
// back stays sound.
func TestPLICacheUnderMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()
	for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.TANE} {
		t.Run(a.String(), func(t *testing.T) {
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a),
				dhyfd.WithMemoryBudget(1<<20), dhyfd.WithPartitionCache(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.FDs {
				if !check.Holds(r, f) {
					t.Errorf("unsound FD emitted: %v", f.Format(r.Names))
				}
			}
		})
	}
}

// TestPLICacheWithFaultInjection: a fault firing mid-run with the cache
// enabled must still produce only sound FDs (the post-run verifier itself
// goes through the cache). engine.worker fires on its hit past the
// bootstrap's one item per column, so for TANE it lands in a level join.
func TestPLICacheWithFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := dataset.Random(rng, 200, 6, 4)
	ctx := context.Background()
	for _, inj := range []struct {
		site faults.Site
		n    int
	}{
		{faults.PartitionBuild, 2},
		{faults.EngineWorker, r.NumCols() + 2},
	} {
		for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.TANE} {
			t.Run(string(inj.site)+"/"+a.String(), func(t *testing.T) {
				defer faults.Reset()
				faults.Arm(inj.site, faults.Plan{Kind: faults.KindError, N: inj.n})
				res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a),
					dhyfd.WithPartitionCache(16<<20))
				if res == nil {
					t.Fatal("nil result")
				}
				_ = err // errored or not, the emitted cover must be sound
				for _, f := range res.FDs {
					if !check.Holds(r, f) {
						t.Errorf("unsound FD emitted: %v", f.Format(r.Names))
					}
				}
			})
		}
	}
}
