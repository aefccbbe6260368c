package integration

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
	"repro/internal/runstate"
)

// durableAlgorithms are the algorithms supporting checkpoint/resume.
var durableAlgorithms = []dhyfd.Algorithm{
	dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD, dhyfd.FastFDs,
}

// tick is the shortest positive checkpoint interval: every driver
// boundary writes a snapshot, so an interrupt anywhere resumes from the
// closest boundary before it.
const tick = time.Nanosecond

// TestResumeEquivalenceMatrix is the kill-and-resume contract: for every
// durable algorithm and every fault site, a run checkpointing at each
// boundary is killed by an injected failure, then resumed — and the
// resumed run must emit a cover identical (same FDs, same order) to an
// uninterrupted run. Faults that fire before the first boundary leave no
// snapshot; the resume is then a documented cold start and must still
// match.
func TestResumeEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := dataset.Random(rng, 300, 7, 4)
	ctx := context.Background()

	baseline := map[dhyfd.Algorithm][]dep.FD{}
	for _, a := range durableAlgorithms {
		res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
		if err != nil {
			t.Fatalf("fault-free %v run failed: %v", a, err)
		}
		baseline[a] = res.FDs
	}

	for _, a := range durableAlgorithms {
		for _, site := range faults.Sites() {
			for _, n := range []int{1, 4} {
				name := fmt.Sprintf("%v/%s@%d", a, site, n)
				t.Run(name, func(t *testing.T) {
					defer faults.Reset()
					dir := t.TempDir()
					faults.Arm(site, faults.Plan{Kind: faults.KindPanic, N: n})
					_, err := dhyfd.Discover(ctx, r,
						dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
						dhyfd.WithCheckpoint(dir, tick))
					fired := !faults.Armed(site)
					faults.Reset()
					if !fired {
						if err != nil {
							t.Fatalf("error %v without the fault firing", err)
						}
						// The site is off this algorithm's path; the
						// completed run still resumes below (terminal
						// snapshot, no work to replay).
					}
					// Whether the interrupted run reached a boundary decides
					// if the second leg genuinely resumes or cold-starts.
					_, lerr := runstate.Load(dir)
					hadSnap := lerr == nil
					res, err := dhyfd.Discover(ctx, r,
						dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
						dhyfd.WithCheckpoint(dir, tick), dhyfd.WithResume(dir))
					if err != nil {
						t.Fatalf("resume failed: %v", err)
					}
					if !reflect.DeepEqual(res.FDs, baseline[a]) {
						only, other := dep.Diff(res.FDs, baseline[a], r.Names)
						t.Fatalf("resumed cover differs from uninterrupted run.\nonly resumed: %v\nonly baseline: %v", only, other)
					}
					if hadSnap && res.Stats.Counters["resumed"] == 0 {
						t.Error("snapshot present but run did not report resuming")
					}
				})
			}
		}
	}
}

// TestResumeAfterDeadline interrupts runs with wall-clock deadlines —
// landing between boundaries rather than on a fault site — and asserts
// the same equivalence. Runs that finish before the deadline resume from
// their terminal snapshot, which must also be byte-identical. First,
// uninterrupted checkpointing runs must return the plain cover, both at
// the 30 s default interval (which still writes a snapshot) and at every
// boundary (which writes more).
func TestResumeAfterDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := dataset.Random(rng, 500, 8, 5)
	ctx := context.Background()

	for _, a := range durableAlgorithms {
		base, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
		if err != nil {
			t.Fatalf("fault-free %v run failed: %v", a, err)
		}
		saves := map[time.Duration]int64{}
		for _, interval := range []time.Duration{0, tick} {
			res, err := dhyfd.Discover(ctx, r,
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
				dhyfd.WithCheckpoint(t.TempDir(), interval))
			if err != nil {
				t.Fatalf("%v checkpointing every %v: %v", a, interval, err)
			}
			if !reflect.DeepEqual(res.FDs, base.FDs) {
				only, other := dep.Diff(res.FDs, base.FDs, r.Names)
				t.Fatalf("%v checkpointing every %v: cover differs from the plain run.\nonly durable: %v\nonly plain: %v", a, interval, only, other)
			}
			saves[interval] = res.Stats.Counters["checkpoints"]
		}
		if saves[0] < 1 || saves[tick] <= saves[0] {
			t.Errorf("%v: %d checkpoints at the default interval, %d at every boundary; want at least 1, and more at every boundary", a, saves[0], saves[tick])
		}
		for _, budget := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond} {
			t.Run(fmt.Sprintf("%v/%v", a, budget), func(t *testing.T) {
				dir := t.TempDir()
				_, err := dhyfd.Discover(ctx, r,
					dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
					dhyfd.WithCheckpoint(dir, tick),
					dhyfd.WithDeadline(time.Now().Add(budget)))
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("interrupted run: %v", err)
				}
				res, rerr := dhyfd.Discover(ctx, r,
					dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2),
					dhyfd.WithCheckpoint(dir, tick), dhyfd.WithResume(dir))
				if rerr != nil {
					t.Fatalf("resume failed: %v", rerr)
				}
				if !reflect.DeepEqual(res.FDs, base.FDs) {
					only, other := dep.Diff(res.FDs, base.FDs, r.Names)
					t.Fatalf("resumed cover differs.\nonly resumed: %v\nonly baseline: %v", only, other)
				}
			})
		}
	}
}

// TestResumeTopKEquivalence repeats the interrupt-resume check under the
// fused top-k search: the restored heap must carry the interrupted run's
// admissions so the resumed ranking matches an uninterrupted one.
func TestResumeTopKEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := dataset.Random(rng, 300, 7, 4)
	ctx := context.Background()
	const k = 5

	for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.TANE, dhyfd.DFD} {
		t.Run(a.String(), func(t *testing.T) {
			base, err := dhyfd.Discover(ctx, r,
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithTopK(k))
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			defer faults.Reset()
			dir := t.TempDir()
			faults.Arm(faults.TopKPrune, faults.Plan{Kind: faults.KindPanic, N: 3})
			_, _ = dhyfd.Discover(ctx, r,
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithTopK(k),
				dhyfd.WithCheckpoint(dir, tick))
			faults.Reset()
			res, rerr := dhyfd.Discover(ctx, r,
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithTopK(k),
				dhyfd.WithCheckpoint(dir, tick), dhyfd.WithResume(dir))
			if rerr != nil {
				t.Fatalf("resume failed: %v", rerr)
			}
			if !reflect.DeepEqual(res.FDs, base.FDs) {
				t.Fatalf("resumed top-%d differs:\n got %v\nwant %v", k, res.FDs, base.FDs)
			}
		})
	}
}

// TestResumeRejectsDamagedSnapshots covers the refusal contract at the
// public API: corrupt, truncated and version-skewed snapshots surface as
// the typed sentinels, never panics, and never a silently wrong run.
func TestResumeRejectsDamagedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 200, 6, 3)
	ctx := context.Background()

	// A healthy snapshot to damage: interrupt a checkpointed TANE run.
	dir := t.TempDir()
	faults.Arm(faults.EngineWorker, faults.Plan{Kind: faults.KindPanic, N: 8})
	_, _ = dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(2),
		dhyfd.WithCheckpoint(dir, tick))
	faults.Reset()
	healthy, err := os.ReadFile(runstate.Path(dir))
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	resume := func(t *testing.T, data []byte) error {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(runstate.Path(d), data, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(2),
			dhyfd.WithResume(d))
		return err
	}

	t.Run("garbage", func(t *testing.T) {
		if err := resume(t, []byte("not a snapshot at all")); !errors.Is(err, dhyfd.ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := resume(t, healthy[:len(healthy)/2]); !errors.Is(err, dhyfd.ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		bad := append([]byte(nil), healthy...)
		bad[len(bad)/2] ^= 0x20
		if err := resume(t, bad); !errors.Is(err, dhyfd.ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), healthy...)
		bad[4] = 0x7f // container version byte after the magic
		if err := resume(t, bad); !errors.Is(err, dhyfd.ErrSnapshotVersion) {
			t.Fatalf("got %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("empty-dir-cold-starts", func(t *testing.T) {
		base, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(2),
			dhyfd.WithResume(t.TempDir()))
		if err != nil {
			t.Fatalf("resume from empty dir should cold start, got %v", err)
		}
		if !dep.Equal(res.FDs, base.FDs) {
			t.Fatal("cold start changed the cover")
		}
	})
}

// TestResumeRejectsMismatchedRun: a healthy snapshot from a different
// relation, algorithm or result-shaping option must be refused with
// ErrSnapshotMismatch instead of silently producing a wrong cover.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := dataset.Random(rng, 200, 6, 3)
	other := dataset.Random(rng, 200, 6, 3)
	ctx := context.Background()

	dir := t.TempDir()
	if _, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(2),
		dhyfd.WithCheckpoint(dir, tick)); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]dhyfd.Option{
		"different-algorithm": {dhyfd.WithAlgorithm(dhyfd.DHyFD), dhyfd.WithResume(dir)},
		"different-topk":      {dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithTopK(3), dhyfd.WithResume(dir)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := dhyfd.Discover(ctx, r, opts...); !errors.Is(err, dhyfd.ErrSnapshotMismatch) {
				t.Fatalf("got %v, want ErrSnapshotMismatch", err)
			}
		})
	}
	t.Run("different-relation", func(t *testing.T) {
		if _, err := dhyfd.Discover(ctx, other, dhyfd.WithAlgorithm(dhyfd.TANE),
			dhyfd.WithResume(dir)); !errors.Is(err, dhyfd.ErrSnapshotMismatch) {
			t.Fatal("snapshot from another relation accepted")
		}
	})
}

// TestCheckpointUnsupportedAlgorithm: the FDEP variants have no resumable
// frontier; asking for durability there is a configuration error.
func TestCheckpointUnsupportedAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := dataset.Random(rng, 100, 5, 3)
	for _, a := range []dhyfd.Algorithm{dhyfd.FDEP, dhyfd.FDEP1, dhyfd.FDEP2} {
		if _, err := dhyfd.Discover(context.Background(), r, dhyfd.WithAlgorithm(a),
			dhyfd.WithCheckpoint(t.TempDir(), 0)); err == nil {
			t.Errorf("%v accepted WithCheckpoint", a)
		}
	}
}

// TestRetryAbsorbsTransientFault: with WithRetries, a transient injected
// worker failure is re-run instead of surfacing, the cover matches the
// fault-free baseline, and the supervision counters land in the report.
// An explicitly fatal plan must still surface immediately.
func TestRetryAbsorbsTransientFault(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := dataset.Random(rng, 300, 7, 4)
	ctx := context.Background()

	for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE} {
		t.Run(a.String(), func(t *testing.T) {
			base, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(4))
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			defer faults.Reset()
			faults.Arm(faults.EngineWorker, faults.Plan{Kind: faults.KindPanic, N: 3})
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(4),
				dhyfd.WithRetries(2))
			fired := !faults.Armed(faults.EngineWorker)
			if err != nil {
				t.Fatalf("retry did not absorb the transient fault: %v", err)
			}
			if !dep.Equal(res.FDs, base.FDs) {
				t.Fatal("retried run changed the cover")
			}
			if fired {
				if res.Stats.Counters["retries"] == 0 {
					t.Error("fault fired but no retries reported")
				}
				if res.Stats.Counters["attempts"] == 0 {
					t.Error("retry layer active but no attempts reported")
				}
			}
		})
	}

	t.Run("fatal-class-not-retried", func(t *testing.T) {
		defer faults.Reset()
		faults.Arm(faults.EngineWorker, faults.Plan{
			Kind: faults.KindPanic, N: 3, Class: faults.ClassFatal,
		})
		_, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithWorkers(4),
			dhyfd.WithRetries(5))
		if !faults.Armed(faults.EngineWorker) {
			// Fired: a fatal failure must surface despite the retry budget.
			var perr *dhyfd.PanicError
			if !errors.As(err, &perr) {
				t.Fatalf("fatal fault surfaced as %v, want *PanicError", err)
			}
			if perr.Class != faults.ClassFatal {
				t.Fatalf("PanicError class = %v, want fatal", perr.Class)
			}
		}
	})
}
