package integration

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/check"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
)

// chaosAlgorithms covers every driver family: the DDM pipeline, the
// sampling-based hybrids, the lattice algorithms and the row-based ones.
var chaosAlgorithms = []dhyfd.Algorithm{
	dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.FDEP2, dhyfd.FastFDs, dhyfd.DFD,
}

// TestChaos arms every fault site with every plan shape against every
// algorithm and asserts the resilience contract: no crash ever escapes
// Discover, a fired fault surfaces as a typed error carrying
// faults.ErrInjected, whatever cover comes back is sound, the run report
// survives, and no goroutines leak. Plans whose site an algorithm never
// reaches (or not often enough) simply don't fire; those runs must match
// the fault-free baseline exactly.
func TestChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := dataset.Random(rng, 200, 6, 4)
	ctx := context.Background()

	baseline := map[dhyfd.Algorithm][]dep.FD{}
	for _, a := range chaosAlgorithms {
		res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
		if err != nil {
			t.Fatalf("fault-free %v run failed: %v", a, err)
		}
		baseline[a] = res.FDs
	}

	plans := []faults.Plan{
		{Kind: faults.KindPanic, N: 1},
		{Kind: faults.KindPanic, N: 3},
		{Kind: faults.KindError, N: 1},
	}
	before := runtime.NumGoroutine()
	for _, site := range faults.Sites() {
		for _, plan := range plans {
			for _, a := range chaosAlgorithms {
				name := fmt.Sprintf("%s/%v@%d/%v", site, plan.Kind, plan.N, a)
				t.Run(name, func(t *testing.T) {
					defer faults.Reset()
					faults.Arm(site, plan)
					res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
					if res == nil {
						t.Fatal("Discover returned a nil result")
					}
					fired := !faults.Armed(site)
					if err != nil {
						if !fired {
							t.Fatalf("error %v without the fault firing", err)
						}
						if !errors.Is(err, faults.ErrInjected) {
							t.Fatalf("fired fault surfaced as untyped error %v", err)
						}
						if plan.Kind == faults.KindPanic {
							var perr *dhyfd.PanicError
							if !errors.As(err, &perr) {
								t.Fatalf("panic injection surfaced as %T, want *PanicError", err)
							}
							if perr.Site == "" || len(perr.Stack) == 0 {
								t.Errorf("PanicError missing diagnostics: site=%q stack=%d bytes", perr.Site, len(perr.Stack))
							}
						}
					} else if !fired && !dep.Equal(res.FDs, baseline[a]) {
						t.Error("unfired fault changed the discovered cover")
					}
					// Soundness: every emitted FD must hold on the data,
					// whether the run fired, errored, or completed.
					for _, f := range res.FDs {
						if !check.Holds(r, f) {
							t.Errorf("unsound FD emitted: %v", f.Format(r.Names))
						}
					}
				})
			}
		}
	}
	// The whole matrix must leave no goroutines behind; allow the
	// runtime a moment to retire finished workers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosTopK repeats the resilience contract with the fused top-k
// search enabled, which adds the topk.prune fault site to the hot path:
// every bound check passes through it, so small-N plans fire reliably.
// A fired fault must surface typed; whatever partial top-k comes back
// must be sound; unfired runs must match the fault-free top-k baseline.
func TestChaosTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := dataset.Random(rng, 200, 6, 4)
	ctx := context.Background()
	const k = 5

	topkAlgorithms := []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD}
	baseline := map[dhyfd.Algorithm][]dep.FD{}
	for _, a := range topkAlgorithms {
		res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithTopK(k))
		if err != nil {
			t.Fatalf("fault-free %v top-k run failed: %v", a, err)
		}
		baseline[a] = res.FDs
	}

	plans := []faults.Plan{
		{Kind: faults.KindPanic, N: 1},
		{Kind: faults.KindPanic, N: 3},
		{Kind: faults.KindError, N: 1},
		{Kind: faults.KindError, N: 3},
	}
	for _, plan := range plans {
		for _, a := range topkAlgorithms {
			name := fmt.Sprintf("%v@%d/%v", plan.Kind, plan.N, a)
			t.Run(name, func(t *testing.T) {
				defer faults.Reset()
				faults.Arm(faults.TopKPrune, plan)
				res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithTopK(k))
				if res == nil {
					t.Fatal("Discover returned a nil result")
				}
				fired := !faults.Armed(faults.TopKPrune)
				if err != nil {
					if !fired {
						t.Fatalf("error %v without the fault firing", err)
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Fatalf("fired fault surfaced as untyped error %v", err)
					}
					var perr *dhyfd.PanicError
					if !errors.As(err, &perr) {
						t.Fatalf("injection surfaced as %T, want *PanicError", err)
					}
				} else if !fired && !dep.Equal(res.FDs, baseline[a]) {
					t.Error("unfired fault changed the top-k cover")
				}
				if len(res.FDs) > k {
					t.Errorf("top-%d result has %d FDs", k, len(res.FDs))
				}
				for _, f := range res.FDs {
					if !check.Holds(r, f) {
						t.Errorf("unsound FD emitted: %v", f.Format(r.Names))
					}
				}
			})
		}
	}
}

// TestChaosDelayInjection exercises KindDelay: the run must simply take
// the extra time and finish with the baseline cover.
func TestChaosDelayInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := dataset.Random(rng, 120, 5, 3)
	want, err := dhyfd.Discover(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Reset()
	faults.Arm(faults.PartitionBuild, faults.Plan{Kind: faults.KindDelay, N: 1, Delay: 50 * time.Millisecond})
	start := time.Now()
	res, err := dhyfd.Discover(context.Background(), r)
	if err != nil {
		t.Fatalf("delay injection broke the run: %v", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("delay did not happen")
	}
	if !dep.Equal(res.FDs, want.FDs) {
		t.Error("delay changed the cover")
	}
}

// TestChaosPanicKeepsPoolCounters: a panic recovered on the driver's own
// goroutine must close the run report with the same folds as an ordinary
// failure. Every case runs over a 1 MiB PLI cache that missed before the
// panic — in the PLI bootstrap, or DFD's cache prewarm before its walk
// panics at its second top-k bound check — so the report must carry the
// cache counters. HyFD panics at its first progressive sampling round,
// after the initial sample fanned out over the columns, so its report
// must also carry the shard counters of that fan-out.
func TestChaosPanicKeepsPoolCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := dataset.Random(rng, 200, 6, 4)
	discover := func(a dhyfd.Algorithm, opts ...dhyfd.Option) func() (*dhyfd.RunStats, error) {
		return func() (*dhyfd.RunStats, error) {
			res, err := dhyfd.Discover(context.Background(), r, append([]dhyfd.Option{
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
				dhyfd.WithPartitionCache(1 << 20)}, opts...)...)
			return &res.Stats, err
		}
	}
	cases := []struct {
		algo   dhyfd.Algorithm
		site   faults.Site
		n      int
		shards bool
		run    func() (*dhyfd.RunStats, error)
	}{
		{dhyfd.DHyFD, faults.SamplingRun, 1, false, discover(dhyfd.DHyFD)},
		{dhyfd.HyFD, faults.SamplingRun, 2, true, discover(dhyfd.HyFD)},
		{dhyfd.DFD, faults.TopKPrune, 2, false, discover(dhyfd.DFD, dhyfd.WithTopK(3))},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			defer faults.Reset()
			faults.Arm(c.site, faults.Plan{Kind: faults.KindPanic, N: c.n})
			rs, err := c.run()
			var perr *dhyfd.PanicError
			if !errors.As(err, &perr) || perr.Site != string(c.site) {
				t.Fatalf("want a *PanicError at %s, got %v", c.site, err)
			}
			if rs.CacheMisses == 0 {
				t.Errorf("panic report lost the cache counters: %+v", rs)
			}
			if c.shards && rs.ShardsBuilt == 0 {
				t.Errorf("panic report lost the shard counters: %+v", rs)
			}
		})
	}
}
