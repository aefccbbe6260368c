package integration

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// cacheCell is one cache configuration of the identity checks below.
type cacheCell struct {
	name string
	opts func(spillDir string) []dhyfd.Option
}

// cachedDFDCells evict (256 KiB), keep everything (64 MiB) and spill
// (64 KiB plus a spill tier), so DFD's builds start from cached
// co-atoms, reloaded co-atoms, prefixes and singles.
var cachedDFDCells = []cacheCell{
	{"256KiB", func(string) []dhyfd.Option { return []dhyfd.Option{dhyfd.WithPartitionCache(256 << 10)} }},
	{"64MiB", func(string) []dhyfd.Option { return []dhyfd.Option{dhyfd.WithPartitionCache(64 << 20)} }},
	{"64KiB+spill", func(dir string) []dhyfd.Option {
		return []dhyfd.Option{dhyfd.WithPartitionCache(64 << 10), dhyfd.WithSpillDir(dir)}
	}},
}

// walkFixture is one relation of the cached-walk identity checks.
type walkFixture struct {
	name string
	r    *dhyfd.Relation
}

// cachedWalkFixtures are every shape at 300×12 and ooc-walk's shape,
// ncvoter 10000×10, whose DFD walk outgrows a 1 MiB cache. Under the race
// detector they are ooc-walk's shape and three shapes at 300×12; the
// full set runs without it.
func cachedWalkFixtures(t *testing.T) []walkFixture {
	var out []walkFixture
	for _, b := range dataset.All() {
		if raceEnabled && b.Name != "ncvoter" && b.Name != "bridges" && b.Name != "flight" {
			continue
		}
		out = append(out, walkFixture{b.Name, b.Generate(300, 12)})
	}
	nc, err := dataset.ByName("ncvoter")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, walkFixture{"ncvoter-10000x10", nc.Generate(10000, 10)})
}

// TestCachedDFDMatchesUncached: what the cache holds decides where each
// of DFD's builds starts — the smallest cached co-atom, a reloaded one,
// the longest cached prefix or a single — and never the cover. Through
// an evicting, a roomy and a spilling cache, at one and two workers, DFD
// returns uncached DFD's cover byte for byte on every shape. The shapes
// run in parallel, so one's spill-file syscalls overlap another's walk.
func TestCachedDFDMatchesUncached(t *testing.T) {
	ctx := context.Background()
	spill := t.TempDir()
	t.Run("shapes", func(t *testing.T) {
		for _, fx := range cachedWalkFixtures(t) {
			t.Run(fx.name, func(t *testing.T) {
				t.Parallel()
				cachedDFDMatchesUncached(ctx, t, fx, spill)
			})
		}
	})
	if left, _ := filepath.Glob(filepath.Join(spill, "*")); len(left) != 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}

// cachedDFDMatchesUncached runs one fixture's cells against its uncached
// DFD cover.
func cachedDFDMatchesUncached(ctx context.Context, t *testing.T, fx walkFixture, spill string) {
	plain, err := dhyfd.Discover(ctx, fx.r, dhyfd.WithAlgorithm(dhyfd.DFD))
	if err != nil {
		t.Fatal(err)
	}
	want := dhyfd.FormatFDs(plain.FDs, fx.r.Names)
	for _, c := range cachedDFDCells {
		for _, w := range []int{1, 2} {
			opts := append([]dhyfd.Option{dhyfd.WithAlgorithm(dhyfd.DFD), dhyfd.WithWorkers(w)}, c.opts(spill)...)
			res, err := dhyfd.Discover(ctx, fx.r, opts...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if got := dhyfd.FormatFDs(res.FDs, fx.r.Names); got != want {
				t.Errorf("%s workers=%d: cover of %d FDs differs from uncached DFD's %d", c.name, w, len(res.FDs), len(plain.FDs))
			}
			if res.Stats.Degraded || res.Stats.CacheHits == 0 {
				t.Errorf("%s workers=%d: degraded=%v, %d cache hits", c.name, w, res.Stats.Degraded, res.Stats.CacheHits)
			}
		}
	}
}

// TestCachedDFDTopKAndResume: a cached top-10 DFD run ranks what an
// uncached one does, and a cached DFD run interrupted by a deadline and
// resumed — which rebuilds the snapshot's cache manifest through
// Harness.WarmCache — returns the uncached cover.
func TestCachedDFDTopKAndResume(t *testing.T) {
	ctx := context.Background()
	for _, fx := range cachedWalkFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			cached := []dhyfd.Option{dhyfd.WithAlgorithm(dhyfd.DFD), dhyfd.WithPartitionCache(256 << 10)}
			plainTop, err := dhyfd.Discover(ctx, fx.r, dhyfd.WithAlgorithm(dhyfd.DFD), dhyfd.WithTopK(10))
			if err != nil {
				t.Fatal(err)
			}
			top, err := dhyfd.Discover(ctx, fx.r, append(cached, dhyfd.WithTopK(10))...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(top.Ranked, plainTop.Ranked) {
				t.Errorf("cached top-10 differs:\n got %v\nwant %v", top.Ranked, plainTop.Ranked)
			}

			plain, err := dhyfd.Discover(ctx, fx.r, dhyfd.WithAlgorithm(dhyfd.DFD))
			if err != nil {
				t.Fatal(err)
			}
			full, err := dhyfd.Discover(ctx, fx.r, cached...)
			if err != nil {
				t.Fatal(err)
			}
			// Deadlines at a quarter and a half of a cached run land
			// mid-walk on most runs; one that completes first resumes
			// from its terminal snapshot, which must match as well.
			for _, frac := range []time.Duration{4, 2} {
				dir := t.TempDir()
				_, err := dhyfd.Discover(ctx, fx.r, append(cached,
					dhyfd.WithCheckpoint(dir, tick),
					dhyfd.WithDeadline(time.Now().Add(full.Stats.Elapsed/frac)))...)
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("interrupted run: %v", err)
				}
				res, err := dhyfd.Discover(ctx, fx.r, append(cached,
					dhyfd.WithCheckpoint(dir, tick), dhyfd.WithResume(dir))...)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(res.FDs, plain.FDs) {
					only, other := dep.Diff(res.FDs, plain.FDs, fx.r.Names)
					t.Errorf("resumed cached cover differs.\nonly resumed: %v\nonly uncached: %v", only, other)
				}
			}
		})
	}
}

// TestTANERankThroughCacheMatchesUncached is rank-lattice's pipeline on
// every shape: TANE, then Rank of its canonical cover through the same
// caller-owned cache, equals an uncached Rank. TANE caches π of every LHS
// it emits an FD for, key FDs included, so every non-empty group is an
// exact hit.
func TestTANERankThroughCacheMatchesUncached(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		t.Run(b.Name, func(t *testing.T) {
			r := b.Generate(300, 12)
			cache := dhyfd.NewPLICache(256 << 20)
			defer cache.Close()
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			canon := dhyfd.CanonicalCover(r.NumCols(), res.FDs)
			got, stats, err := dhyfd.Rank(ctx, r, canon, dhyfd.WithCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := dhyfd.Rank(ctx, r, canon)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ranking through TANE's cache differs from an uncached Rank (%d vs %d FDs)", len(got), len(want))
			}
			empty := int64(0)
			for _, g := range dep.GroupByLHS(canon) {
				if g.LHS.IsEmpty() {
					empty++
				}
			}
			if stats.PartitionsBuilt != empty {
				t.Errorf("%d of %d LHS groups missed TANE's cache, want %d (the empty LHS)", stats.PartitionsBuilt, stats.Groups, empty)
			}
		})
	}
}
