package integration

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/runstate"
	"repro/internal/tane"
)

// TestParallelCoversMatchSerial: the worker-pool width must never change
// the discovered cover. DHyFD, HyFD and TANE — the three algorithms with a
// parallel validation hot path — are run at 1, 2 and 8 workers on several
// benchmark shapes and compared against each other and across widths.
func TestParallelCoversMatchSerial(t *testing.T) {
	fixtures := []struct {
		name       string
		rows, cols int
	}{
		{"ncvoter", 300, 10},
		{"bridges", 108, 9},
		{"abalone", 400, 8},
	}
	widths := []int{1, 2, 8}
	for _, fx := range fixtures {
		b, err := dataset.ByName(fx.name)
		if err != nil {
			t.Fatal(err)
		}
		r := b.Generate(fx.rows, fx.cols)
		ctx := context.Background()

		var want []dep.FD
		for _, w := range widths {
			got, _, err := core.Run(ctx, r, core.Config{Options: runstate.Options{Workers: w}})
			if err != nil {
				t.Fatalf("%s dhyfd workers=%d: %v", fx.name, w, err)
			}
			if want == nil {
				want = got
			} else if !dep.Equal(got, want) {
				t.Errorf("%s: dhyfd cover at workers=%d differs from workers=1", fx.name, w)
			}
		}
		for _, w := range widths {
			got, _, err := hyfd.Run(ctx, r, hyfd.Config{Options: runstate.Options{Workers: w}})
			if err != nil {
				t.Fatalf("%s hyfd workers=%d: %v", fx.name, w, err)
			}
			if !dep.Equal(got, want) {
				t.Errorf("%s: hyfd cover at workers=%d differs from dhyfd serial", fx.name, w)
			}
		}
		for _, w := range widths {
			got, _, err := tane.Run(ctx, r, tane.Config{Workers: w})
			if err != nil {
				t.Fatalf("%s tane workers=%d: %v", fx.name, w, err)
			}
			if !dep.Equal(got, want) {
				t.Errorf("%s: tane cover at workers=%d differs from dhyfd serial", fx.name, w)
			}
		}
	}
}

// TestRunStatsPopulated: every algorithm must emit a run report with at
// least one phase of non-zero wall time and a consistent FD count.
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
}

// TestMidRunCancellationIsPrompt: cancelling while validation is under way
// must surface context.Canceled quickly — within one validation batch, not
// after the remaining lattice is processed. The relation is sized so a
// full run takes far longer than the accepted bound.
func TestMidRunCancellationIsPrompt(t *testing.T) {
	b, err := dataset.ByName("diabetic")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(1500, 20)

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
			_, rs, err := hyfd.Run(ctx, r, hyfd.Config{Options: runstate.Options{Workers: 2}})
			return rs, err
		},
		"tane": func(ctx context.Context) (*engine.RunStats, error) {
			_, rs, err := tane.Run(ctx, r, tane.Config{Workers: 2})
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
