// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Sections V and VI). Each runner prints the
// same rows or series the paper reports and returns the structured results
// for programmatic use.
//
// The data sets are the synthetic shapes of internal/dataset, scaled by
// Params.Scale (1.0 = the harness defaults documented per benchmark; the
// paper's full sizes are reachable by raising the scale). Absolute numbers
// therefore differ from the paper; the comparisons — which algorithm wins
// where, how covers shrink, how redundancy distributes — are the
// reproduction target. See EXPERIMENTS.md for the side-by-side reading.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/core"
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

// Params configure a harness run.
type Params struct {
	// Scale multiplies every data set's default row count. 1.0 by default.
	Scale float64
	// TimeLimit bounds each single algorithm run; exceeding it reports TL
	// like the paper's tables. Runs are cancelled cooperatively via
	// context, so a timed-out run frees its memory. Default 30s.
	TimeLimit time.Duration
	// Quick restricts table experiments to a representative subset of data
	// sets, for smoke tests.
	Quick bool
	// CacheBytes routes each run's partition lookups through a
	// size-bounded PLI cache (fresh per run, so algorithms stay
	// comparable); the hit/miss/eviction counters land in the run report.
	// 0 disables caching.
	CacheBytes int64
}

func (p *Params) fillDefaults() {
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	if p.TimeLimit <= 0 {
		p.TimeLimit = 30 * time.Second
	}
}

func (p Params) rows(defaultRows int) int {
	n := int(float64(defaultRows) * p.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// AlgorithmNames lists the algorithms Table II compares, in column order.
// Run additionally accepts "FastFDs" and "DFD", the related-work
// extensions outside the paper's evaluation.
var AlgorithmNames = []string{"TANE", "FDEP", "FDEP1", "FDEP2", "HyFD", "DHyFD"}

// RunResult is one algorithm execution.
type RunResult struct {
	Algorithm string
	Dataset   string
	Rows      int
	Cols      int
	FDs       int
	Elapsed   time.Duration
	AllocMB   float64
	TimedOut  bool
	// Stats is the algorithm-agnostic run report (partial on timeout).
	Stats *engine.RunStats
}

// Time renders the elapsed time like the paper's tables ("TL" on timeout).
func (r RunResult) Time() string {
	if r.TimedOut {
		return "TL"
	}
	return fmt.Sprintf("%.3f", r.Elapsed.Seconds())
}

// runFunc executes one algorithm and returns its FD count and run report,
// or an error (with the partial report) when cancelled.
type runFunc func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error)

func algorithmFunc(name string, cache *partition.Cache) runFunc {
	switch name {
	case "TANE":
		return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
			fds, rs, err := tane.Run(ctx, r, tane.Config{Cache: cache})
			return len(fds), rs, err
		}
	case "FDEP":
		return fdepFunc(fdep.Classic)
	case "FDEP1":
		return fdepFunc(fdep.NonRedundant)
	case "FDEP2":
		return fdepFunc(fdep.Sorted)
	case "HyFD":
		return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
			fds, rs, err := hyfd.Run(ctx, r, hyfd.Config{Cache: cache})
			return len(fds), rs, err
		}
	case "DHyFD":
		return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
			fds, rs, err := core.Run(ctx, r, core.Config{Options: runstate.Options{Cache: cache}})
			return len(fds), rs, err
		}
	case "FastFDs":
		return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
			fds, rs, err := fastfds.Run(ctx, r, fastfds.Config{})
			return len(fds), rs, err
		}
	case "DFD":
		return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
			fds, rs, err := dfd.Run(ctx, r, dfd.Config{Cache: cache})
			return len(fds), rs, err
		}
	}
	panic("bench: unknown algorithm " + name)
}

func fdepFunc(v fdep.Variant) runFunc {
	return func(ctx context.Context, r *relation.Relation) (int, *engine.RunStats, error) {
		fds, rs, err := fdep.Run(ctx, r, v, fdep.Config{})
		return len(fds), rs, err
	}
}

// Run executes one named algorithm on r under the time limit, measuring
// elapsed time and bytes allocated. Runs that exceed the limit are
// cancelled cooperatively — the paper's TL entries — and their work is
// reclaimed before Run returns. Cancelling ctx aborts the run early.
func Run(ctx context.Context, name string, r *relation.Relation, limit time.Duration) RunResult {
	return RunCached(ctx, name, r, limit, 0)
}

// RunCached is Run with a PLI cache of the given byte capacity routed
// through the algorithms that hold partitions (TANE, HyFD, DHyFD, DFD).
// The cache is fresh per call so algorithms stay comparable; its traffic
// is reported in the result's Stats. 0 bytes disables caching.
func RunCached(ctx context.Context, name string, r *relation.Relation, limit time.Duration, cacheBytes int64) RunResult {
	res := RunResult{
		Algorithm: name,
		Rows:      r.NumRows(),
		Cols:      r.NumCols(),
	}
	f := algorithmFunc(name, partition.NewCache(cacheBytes, nil))

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()

	start := time.Now()
	fds, rs, err := f(ctx, r)
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res.Stats = rs
	if err != nil {
		res.TimedOut = true
		res.Elapsed = limit
		return res
	}
	res.FDs = fds
	res.Elapsed = elapsed
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return res
}

// CoverOf runs DHyFD and returns the left-reduced cover — the input of the
// cover and ranking experiments. Cancellation yields the partial cover.
func CoverOf(ctx context.Context, r *relation.Relation) []dep.FD {
	fds, _, _ := core.Run(ctx, r, core.Config{})
	return fds
}

// newTable returns a tabwriter for aligned console tables.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
