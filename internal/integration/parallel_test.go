package integration

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/tane"
)

// TestParallelCoversMatchSerial: the worker-pool width must never change
// the discovered cover. Every algorithm runs through Discover at widths
// {1, 2, 3, 4, 7} — each its own cut of every fan-out: columns,
// refinement jobs, FD-nodes, sampled partitions, pair-scan row blocks and
// LHS groups — on three benchmark shapes and two random relations, DFD
// with a partition cache so its prewarm fans out over the columns, and
// each cover must equal DHyFD's serial one.
func TestParallelCoversMatchSerial(t *testing.T) {
	shape := func(name string, rows, cols int) *relation.Relation {
		b, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return b.Generate(rows, cols)
	}
	fixtures := []struct {
		name string
		r    *relation.Relation
	}{
		{"ncvoter-300x10", shape("ncvoter", 300, 10)},
		{"bridges-108x9", shape("bridges", 108, 9)},
		{"abalone-400x8", shape("abalone", 400, 8)},
		{"random-240x6", dataset.Random(rand.New(rand.NewSource(41)), 240, 6, 4)},
		{"random-300x6", dataset.Random(rand.New(rand.NewSource(17)), 300, 6, 4)},
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			want := coverOf(core.Run(ctx, fx.r, core.Config{}))
			for _, a := range dhyfd.Algorithms() {
				t.Run(a.String(), func(t *testing.T) {
					for _, w := range []int{1, 2, 3, 4, 7} {
						opts := []dhyfd.Option{dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(w)}
						if a == dhyfd.DFD {
							opts = append(opts, dhyfd.WithPartitionCache(16<<20))
						}
						res, err := dhyfd.Discover(ctx, fx.r, opts...)
						if err != nil {
							t.Fatalf("workers=%d: %v", w, err)
						}
						if !dep.Equal(res.FDs, want) {
							t.Errorf("workers=%d: cover of %d FDs differs from serial DHyFD's %d", w, len(res.FDs), len(want))
						}
					}
				})
			}
		})
	}
}

// TestRunStatsPopulated: every algorithm must emit a run report with at
// least one phase of non-zero wall time and a consistent FD count. The
// PLI bootstrap is timed as its own singles phase, ahead of the phase
// that first reads it: the hybrids' initial sample, and the walk of DFD
// with a cache, whose prewarm is the bootstrap.
func TestRunStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 200, 7, 4)
	ctx := context.Background()

	runs := map[string]func() ([]dep.FD, *engine.RunStats, error){
		"dhyfd":   func() ([]dep.FD, *engine.RunStats, error) { return core.Run(ctx, r, core.Config{}) },
		"hyfd":    func() ([]dep.FD, *engine.RunStats, error) { return hyfd.Run(ctx, r, hyfd.Config{}) },
		"tane":    func() ([]dep.FD, *engine.RunStats, error) { return tane.Run(ctx, r, tane.Config{}) },
		"fdep":    func() ([]dep.FD, *engine.RunStats, error) { return fdep.Run(ctx, r, fdep.Classic, fdep.Config{}) },
		"fdep1":   func() ([]dep.FD, *engine.RunStats, error) { return fdep.Run(ctx, r, fdep.NonRedundant, fdep.Config{}) },
		"fdep2":   func() ([]dep.FD, *engine.RunStats, error) { return fdep.Run(ctx, r, fdep.Sorted, fdep.Config{}) },
		"fastfds": func() ([]dep.FD, *engine.RunStats, error) { return fastfds.Run(ctx, r, fastfds.Config{}) },
		"dfd":     func() ([]dep.FD, *engine.RunStats, error) { return dfd.Run(ctx, r, dfd.Config{}) },
	}
	for name, run := range runs {
		fds, rs, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs == nil {
			t.Fatalf("%s: nil run stats", name)
		}
		if rs.Algorithm != name {
			t.Errorf("%s: stats name %q", name, rs.Algorithm)
		}
		if len(rs.Phases) == 0 {
			t.Errorf("%s: no phases recorded", name)
		}
		if rs.PhaseTotal() <= 0 {
			t.Errorf("%s: zero total phase time", name)
		}
		if rs.Elapsed <= 0 {
			t.Errorf("%s: Elapsed not stamped", name)
		}
		if rs.Cancelled {
			t.Errorf("%s: Cancelled on a clean run", name)
		}
		if rs.FDs != int64(len(fds)) {
			t.Errorf("%s: stats.FDs=%d, len(fds)=%d", name, rs.FDs, len(fds))
		}
		if rs.String() == "" {
			t.Errorf("%s: empty String()", name)
		}
	}

	runs["dfd with a cache"] = func() ([]dep.FD, *engine.RunStats, error) {
		return dfd.Run(ctx, r, dfd.Config{Cache: partition.NewCache(16<<20, nil)})
	}
	for name, next := range map[string]string{"dhyfd": "sample", "hyfd": "sample", "dfd with a cache": "walk"} {
		_, rs, err := runs[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var phases []string
		for _, p := range rs.Phases {
			phases = append(phases, p.Name)
		}
		if i, j := slices.Index(phases, "singles"), slices.Index(phases, next); i < 0 || j < i {
			t.Errorf("%s: phases %v, want singles before %s", name, phases, next)
		}
	}
}

// TestMidRunCancellationIsPrompt: cancelling while validation is under way
// must surface context.Canceled quickly — within one validation batch, not
// after the remaining lattice is processed. The relation is sized so a
// full run takes far longer than the accepted bound. FDEP2 and FastFDs
// spend their run in the pair scan, so they run on two workers over a
// weather 12000×18 relation whose scan takes several bounds (2.8 and
// 3.5 s on a 2-vCPU host, against a bound of about 0.4 s) and are
// cancelled mid-scan: a pair-scan block that does not poll ctx once per
// outer row runs to its end and fails them.
func TestMidRunCancellationIsPrompt(t *testing.T) {
	b, err := dataset.ByName("diabetic")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(1500, 20)
	w, err := dataset.ByName("weather")
	if err != nil {
		t.Fatal(err)
	}
	tall := w.Generate(12000, 18)

	full := time.Now()
	if _, _, err := core.Run(context.Background(), r, core.Config{Options: runstate.Options{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	fullElapsed := time.Since(full)

	runs := map[string]func(ctx context.Context) (*engine.RunStats, error){
		"dhyfd": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := core.Run(ctx, r, core.Config{Options: runstate.Options{Workers: 2}})
			return rs, err
		},
		"hyfd": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := hyfd.Run(ctx, r, hyfd.Config{Workers: 2})
			return rs, err
		},
		"tane": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := tane.Run(ctx, r, tane.Config{Workers: 2})
			return rs, err
		},
		"fdep2": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := fdep.Run(ctx, tall, fdep.Sorted, fdep.Config{Workers: 2})
			return rs, err
		},
		"fastfds": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := fastfds.Run(ctx, tall, fastfds.Config{Workers: 2})
			return rs, err
		},
	}
	// A cancelled run must finish well before a full one; the margin keeps
	// the test robust on slow CI machines while still catching a run that
	// ignores ctx until the end.
	bound := fullElapsed/2 + 250*time.Millisecond
	for name, run := range runs {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		rs, err := run(ctx)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
			continue
		}
		if rs == nil || !rs.Cancelled {
			t.Errorf("%s: partial stats missing Cancelled flag", name)
		}
		if elapsed > bound {
			t.Errorf("%s: cancellation took %v (full run %v, bound %v)", name, elapsed, fullElapsed, bound)
		}
	}
}
