// Benchmarks regenerating the paper's tables and figures, one target per
// artifact, plus the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The harness scales are deliberately small so the full suite completes in
// minutes; use cmd/fdbench for bigger runs.
package dhyfd_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/armstrong"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/normalize"
	"repro/internal/profile"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/tane"
)

// discover returns DHyFD's left-reduced cover of r, failing b on error.
func discover(b *testing.B, r *relation.Relation) []dhyfd.FD {
	b.Helper()
	fds, _, err := core.Run(context.Background(), r, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return fds
}

func benchParams() bench.Params {
	return bench.Params{Scale: 0.05, TimeLimit: 30 * time.Second, Quick: true}
}

// --- one target per table/figure -------------------------------------------

func BenchmarkTable2Runtimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(context.Background(), io.Discard, benchParams(), relation.NullEqNull)
	}
}

func BenchmarkTable2NullSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2Null(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkTable3Canonical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkTable4Redundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig6RatioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig7Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig8BestPerformer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig10Histogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkFig11NCVoterFragments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(context.Background(), io.Discard, benchParams())
	}
}

func BenchmarkCityColumnView(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.CityView(context.Background(), io.Discard, benchParams())
	}
}

// --- per-algorithm discovery on representative shapes -----------------------

func discoveryBench(b *testing.B, name string, rows, cols int) {
	bm, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(rows, cols)
	for _, algo := range []string{"TANE", "FDEP2", "HyFD", "DHyFD"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(context.Background(), algo, r, time.Minute)
				if res.TimedOut {
					b.Fatalf("%s timed out", algo)
				}
			}
		})
	}
}

func BenchmarkDiscoverNCVoter(b *testing.B)  { discoveryBench(b, "ncvoter", 1000, 19) }
func BenchmarkDiscoverWeather(b *testing.B)  { discoveryBench(b, "weather", 2000, 18) }
func BenchmarkDiscoverDiabetic(b *testing.B) { discoveryBench(b, "diabetic", 800, 20) }

// BenchmarkDiscoverCached measures the shared PLI cache end to end: the
// same discovery run with caching off and on. The realized hit rate is
// reported as a custom metric (hits per lookup); DFD's random walks
// revisit lattice nodes constantly and profit most, while for the
// lattice/hybrid algorithms the cache mainly serves cross-subsystem reuse.
// Bridges' DFD run is mostly hitting-set enumeration; ncvoter 10000×10
// at a 1 MiB cache is ooc-walk's shape, where the walk's cached builds
// (co-atom starts, evictions and rebuilds) are most of the run.
func BenchmarkDiscoverCached(b *testing.B) {
	cases := []struct {
		dataset    string
		rows, cols int
		algo       dhyfd.Algorithm
		cacheBytes int64
	}{
		{"weather", 2000, 18, dhyfd.TANE, 64 << 20},
		{"weather", 2000, 18, dhyfd.DHyFD, 64 << 20},
		{"bridges", 108, 13, dhyfd.DFD, 64 << 20},
		{"ncvoter", 10000, 10, dhyfd.DFD, 1 << 20},
	}
	for _, c := range cases {
		bm, err := dataset.ByName(c.dataset)
		if err != nil {
			b.Fatal(err)
		}
		r := bm.Generate(c.rows, c.cols)
		for _, state := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("%s-%v/cache=%s", c.dataset, c.algo, state), func(b *testing.B) {
				opts := []dhyfd.Option{dhyfd.WithAlgorithm(c.algo)}
				if state == "on" {
					opts = append(opts, dhyfd.WithPartitionCache(c.cacheBytes))
				}
				var hits, lookups int64
				for i := 0; i < b.N; i++ {
					res, err := dhyfd.Discover(context.Background(), r, opts...)
					if err != nil {
						b.Fatal(err)
					}
					hits += res.Stats.CacheHits
					lookups += res.Stats.CacheHits + res.Stats.CacheMisses
				}
				if lookups > 0 {
					b.ReportMetric(float64(hits)/float64(lookups), "hit-rate")
				}
			})
		}
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationInduction compares classic per-attribute induction on
// classic FD-trees (FDEP) against synergized induction on extended FD-trees
// (FDEP2), the paper's Section IV-C/D improvement.
func BenchmarkAblationInduction(b *testing.B) {
	bm, _ := dataset.ByName("bridges")
	r := bm.Generate(108, 13)
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = fdep.Run(context.Background(), r, fdep.Classic, fdep.Config{})
		}
	})
	b.Run("synergized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = fdep.Run(context.Background(), r, fdep.Sorted, fdep.Config{})
		}
	})
}

// BenchmarkAblationNonFDOrder compares the descending sort of non-FDs
// (FDEP2) against the non-redundant non-FD cover (FDEP1), Section IV-H.
func BenchmarkAblationNonFDOrder(b *testing.B) {
	bm, _ := dataset.ByName("echo")
	r := bm.Generate(132, 13)
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = fdep.Run(context.Background(), r, fdep.Sorted, fdep.Config{})
		}
	})
	b.Run("nonredundant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = fdep.Run(context.Background(), r, fdep.NonRedundant, fdep.Config{})
		}
	})
}

// BenchmarkAblationDDM isolates the dynamic data manager: ratio 3 enables
// partition refreshes, an effectively infinite ratio disables them.
func BenchmarkAblationDDM(b *testing.B) {
	bm, _ := dataset.ByName("weather")
	r := bm.Generate(4000, 18)
	b.Run("ddm-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = core.Run(context.Background(), r, core.Config{Ratio: 3})
		}
	})
	b.Run("ddm-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = core.Run(context.Background(), r, core.Config{Ratio: 1e18})
		}
	})
}

// BenchmarkAblationOneShotSampling contrasts DHyFD's single sampling pass
// with HyFD's progressive re-sampling on the same input.
func BenchmarkAblationOneShotSampling(b *testing.B) {
	bm, _ := dataset.ByName("uniprot")
	r := bm.Generate(3000, 20)
	b.Run("dhyfd-one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = core.Run(context.Background(), r, core.Config{})
		}
	})
	b.Run("hyfd-progressive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = hyfd.Run(context.Background(), r, hyfd.Config{})
		}
	})
}

// --- supporting computations --------------------------------------------------

// BenchmarkCanonicalCover times the canonical cover of discovered covers,
// the input it gets in practice: TANE's on flight 500×17 (rank-lattice's
// shape) and DHyFD's on diabetic 3000×19 (wide-induct's). Both are
// left-reduced already, as every discovered cover is.
func BenchmarkCanonicalCover(b *testing.B) {
	for _, s := range []struct {
		dataset, algo string
		rows, cols    int
	}{{"flight", "TANE", 500, 17}, {"diabetic", "DHyFD", 3000, 19}} {
		bm, _ := dataset.ByName(s.dataset)
		r := bm.Generate(s.rows, s.cols)
		var fds []dhyfd.FD
		if s.algo == "TANE" {
			var err error
			if fds, _, err = tane.Run(context.Background(), r, tane.Config{}); err != nil {
				b.Fatal(err)
			}
		} else {
			fds = discover(b, r)
		}
		b.Run(fmt.Sprintf("%s-%s-%dx%d", s.algo, s.dataset, s.rows, s.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cover.Canonical(r.NumCols(), fds)
			}
		})
	}
}

// BenchmarkCanonicalCoverLarge times a cover closer to Table III's
// scale: DHyFD's 4,573-FD cover of hepatitis 155×18.
func BenchmarkCanonicalCoverLarge(b *testing.B) {
	bm, _ := dataset.ByName("hepatitis")
	r := bm.Generate(155, 18)
	lr := discover(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cover.Canonical(r.NumCols(), lr)
	}
}

func BenchmarkRankCanonicalCover(b *testing.B) {
	bm, _ := dataset.ByName("ncvoter")
	r := bm.GenerateDefault()
	can := cover.Canonical(r.NumCols(), discover(b, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ranking.RankCtx(context.Background(), r, can, ranking.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNegativeCover1000Rows(b *testing.B) {
	bm, _ := dataset.ByName("ncvoter")
	r := bm.Generate(1000, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.NegativeCover(context.Background(), engine.NewPool(1), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTANELattice times TANE alone on fd-reduced, whose FDs all sit
// at level 3, and on flight 500×17, fdperf's rank-lattice shape, where the
// lattice's bookkeeping is a large share of a run.
func BenchmarkTANELattice(b *testing.B) {
	for _, s := range []struct {
		dataset    string
		rows, cols int
	}{{"fd-reduced", 2000, 20}, {"flight", 500, 17}} {
		bm, _ := dataset.ByName(s.dataset)
		r := bm.Generate(s.rows, s.cols)
		b.Run(fmt.Sprintf("%s-%dx%d", s.dataset, s.rows, s.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tane.Run(context.Background(), r, tane.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProfileReport(b *testing.B) {
	bm, _ := dataset.ByName("ncvoter")
	r := bm.GenerateDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.ProfileCtx(context.Background(), r, profile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCandidateKeys(b *testing.B) {
	bm, _ := dataset.ByName("bridges")
	r := bm.GenerateDefault()
	can := cover.Canonical(r.NumCols(), discover(b, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normalize.CandidateKeys(r.NumCols(), can, 128)
	}
}

func BenchmarkArmstrongRoundTrip(b *testing.B) {
	bm, _ := dataset.ByName("iris")
	r := bm.GenerateDefault()
	can := cover.Canonical(r.NumCols(), discover(b, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, err := armstrong.Relation(r.NumCols(), can, 0)
		if err != nil {
			b.Fatal(err)
		}
		discover(b, arm)
	}
}

// BenchmarkDiscoverParallel measures the engine worker pool end to end
// through the public API: the serial baseline against Workers=4 on a
// validation-heavy shape. Speedup requires the host to expose multiple
// CPUs to the runtime; on a single-CPU host the two are expected to tie,
// which bounds the pool's overhead instead.
func BenchmarkDiscoverParallel(b *testing.B) {
	bm, _ := dataset.ByName("diabetic")
	r := bm.Generate(1500, 24)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dhyfd.Discover(context.Background(), r, dhyfd.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelValidation measures the Workers extension.
func BenchmarkParallelValidation(b *testing.B) {
	bm, _ := dataset.ByName("diabetic")
	r := bm.Generate(1500, 24)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, _ = core.Run(context.Background(), r, core.Config{Options: runstate.Options{Workers: workers}})
			}
		})
	}
}

// BenchmarkExtensionBaselines measures the related-work algorithms outside
// the paper's evaluation on a shape each is suited to.
func BenchmarkExtensionBaselines(b *testing.B) {
	bm, _ := dataset.ByName("bridges")
	r := bm.GenerateDefault()
	for _, algo := range []string{"FastFDs", "DFD"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(context.Background(), algo, r, time.Minute)
				if res.TimedOut {
					b.Fatal("timed out")
				}
			}
		})
	}
}
