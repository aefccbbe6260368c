// Package engine provides the shared parallel-validation machinery of the
// discovery algorithms: a bounded, context-aware worker pool with panic
// recovery, and RunStats, the algorithm-agnostic run report every
// algorithm emits.
//
// The pool deliberately has no queues or channels on the hot path. Work
// is an index range [0, n); workers claim indexes through an atomic
// cursor, so distribution costs one atomic add per item, and a Run
// allocates only that cursor's shared state and its goroutines. Every
// worker, the calling goroutine of a one-worker Run included, runs the
// same claim loop, and every item runs under the same recovery (and,
// with a RetryPolicy, the same retries). Cancellation is
// cooperative: workers poll the context every checkEvery items, which
// bounds the reaction latency to one small batch of validations.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// checkEvery is how many items a worker processes between context polls.
// It bounds how much work runs after cancellation: at most
// workers × checkEvery items.
const checkEvery = 32

// PanicError wraps a panic recovered inside the discovery runtime — a pool
// worker or an algorithm driver — so that callers observe it as an
// ordinary error plus a partial result instead of a crashed process.
type PanicError struct {
	// Site attributes the panic: a faults.Site name for injected
	// failures, or the recovery point ("engine.worker", "discover") for
	// organic ones.
	Site string
	// Class is the failure's retry classification. Injected failures carry
	// the class their plan resolved (faults.ClassOf); organic panics are
	// ClassFatal — re-running an unclassified failure risks repeating side
	// effects, so only explicitly transient failures reach the retry path.
	Class faults.Class
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	if e.Site != "" {
		return fmt.Sprintf("engine: panic at %s: %v", e.Site, e.Value)
	}
	return fmt.Sprintf("engine: panic: %v", e.Value)
}

// Unwrap exposes panic values that are errors (injected faults panic with
// their Injection error), so errors.Is sees through the wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPanicError types a recovered panic value. site names the recovery
// point; when the value itself carries a fault-injection site, that more
// precise name wins. The stack is captured here, so call it directly
// inside the deferred recovery.
func NewPanicError(site string, value any) *PanicError {
	if s := faults.SiteOf(value); s != "" {
		site = string(s)
	}
	class := faults.ClassOf(value)
	if class == faults.ClassUnknown {
		class = faults.ClassFatal
	}
	return &PanicError{Site: site, Class: class, Value: value, Stack: debug.Stack()}
}

// RetryPolicy bounds the supervised re-execution of transiently failed
// work items. The zero value disables retries: every item runs once, and
// its failure ends the Run.
type RetryPolicy struct {
	// Max is the number of re-executions allowed per item after its first
	// failure. 0 disables the retry layer entirely.
	Max int
	// BaseDelay seeds the exponential backoff between attempts
	// (default 1ms). Attempt r waits a uniformly random duration in
	// [0, min(BaseDelay<<r, MaxDelay)] — capped exponential backoff with
	// full jitter, so a burst of failed items does not retry in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
}

// Pool is a bounded worker pool. The zero value is not usable; use
// NewPool. A pool carries no per-Run state and may be reused and shared;
// its attempt/retry counters accumulate across Run calls for the run
// report.
type Pool struct {
	workers int
	retry   RetryPolicy

	// attempts counts item executions supervised by the retry layer
	// (first tries and retries); retries counts re-executions after a
	// transient failure. Both stay zero while the retry layer is off.
	attempts atomic.Int64
	retries  atomic.Int64

	// shards and shardRows accumulate CountShards: items of merged
	// fan-outs and the entries they carried into the merges. Both stay
	// zero while no fan-out merges on the pool.
	shards    atomic.Int64
	shardRows atomic.Int64
}

// NewPool returns a pool of the given width. Widths below 1 clamp to 1,
// which makes Run a serial loop (still with context checks and panic
// recovery), so callers can pass a user-supplied Workers knob through
// unconditionally.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// NewPoolRetry returns a pool that re-runs transiently failed items per
// the policy. Failures are retried only when their class is
// faults.ClassTransient — injected failures fire before the item
// publishes side effects, so a re-execution starts clean; organic panics
// and fatal classes surface immediately.
func NewPoolRetry(workers int, retry RetryPolicy) *Pool {
	p := NewPool(workers)
	if retry.Max < 0 {
		retry.Max = 0
	}
	p.retry = retry
	return p
}

// RetryStats reports the supervised execution counters: total item
// attempts under the retry layer and how many of those were retries.
// Both are zero when the pool was built without a retry policy.
func (p *Pool) RetryStats() (attempts, retries int64) {
	return p.attempts.Load(), p.retries.Load()
}

// FoldRetryStats folds the pool's supervision counters into the run
// report as the "attempts" and "retries" counters. A pool with the retry
// layer off contributes nothing.
func (p *Pool) FoldRetryStats(rs *RunStats) {
	attempts, retries := p.RetryStats()
	if attempts > 0 {
		rs.Count("attempts", attempts)
		rs.Count("retries", retries)
	}
}

// CountShards records one merged fan-out on the pool: shards items that
// collected into item-local results, merging rows entries into the
// shared result. The agree-set passes of package sampling call it once
// per fanned-out pass, with one item per sampled partition or pair-scan
// row block and the item-local agree sets as rows.
func (p *Pool) CountShards(shards, rows int64) {
	p.shards.Add(shards)
	p.shardRows.Add(rows)
}

// ShardStats reports the accumulated CountShards counters: items merged
// and the entries they carried into the merges.
func (p *Pool) ShardStats() (shards, rows int64) {
	return p.shards.Load(), p.shardRows.Load()
}

// FoldShardStats folds the pool's CountShards counters into the run
// report's ShardsBuilt / RowsScattered fields. A pool that merged no
// fan-out contributes nothing.
func (p *Pool) FoldShardStats(rs *RunStats) {
	shards, rows := p.ShardStats()
	rs.ShardsBuilt += shards
	rs.RowsScattered += rows
}

// Workers returns the pool width. Callers allocating per-worker scratch
// state (validators, refiners, non-FD buffers) size it with this.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, i) for every i in [0, n), distributing items
// across the pool's workers. worker identifies the executing worker in
// [0, Workers()), so fn can use per-worker scratch state without locking.
//
// Run returns early with ctx.Err() when the context is cancelled — within
// one batch of checkEvery items per worker — and with a *PanicError when
// fn panics. Items are claimed in order but complete in any order; fn
// must not assume i monotonicity across workers. A one-worker pool (or a
// single item) runs the items on the calling goroutine.
func (p *Pool) Run(ctx context.Context, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		panicked atomic.Pointer[PanicError]
	)
	work := func(w int) {
		for polled := 0; !stop.Load(); polled++ {
			if polled%checkEvery == 0 && ctx.Err() != nil {
				stop.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if pe := p.runItem(ctx, w, i, fn); pe != nil {
				panicked.CompareAndSwap(nil, pe)
				stop.Store(true)
				return
			}
		}
	}
	if workers := min(p.workers, n); workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return ctx.Err()
}

// runItem executes one work item. Without a retry policy it runs once;
// under one, a failed attempt is re-run while its class stays transient
// and the policy has budget, sleeping a jittered backoff between
// attempts. The final failure (fatal, exhausted, or interrupted by
// cancellation) is returned for the caller to publish; a drained backoff
// wait returns the original failure so shutdown never blocks on sleeps.
func (p *Pool) runItem(ctx context.Context, w, i int, fn func(worker, i int)) *PanicError {
	if p.retry.Max > 0 {
		p.attempts.Add(1)
	}
	pe := p.execItem(w, i, fn)
	for r := 0; pe != nil && pe.Class == faults.ClassTransient && r < p.retry.Max; r++ {
		if !sleepBackoff(ctx, p.retry, r) {
			return pe
		}
		p.retries.Add(1)
		p.attempts.Add(1)
		pe = p.execItem(w, i, fn)
	}
	return pe
}

// execItem runs one attempt of one item, converting a panic into the
// typed *PanicError the retry loop classifies.
func (p *Pool) execItem(w, i int, fn func(worker, i int)) (pe *PanicError) {
	defer func() {
		if rec := recover(); rec != nil {
			pe = NewPanicError(string(faults.EngineWorker), rec)
		}
	}()
	faults.Check(faults.EngineWorker)
	fn(w, i)
	return nil
}

// sleepBackoff waits the capped, full-jitter exponential backoff for
// retry attempt r (0-based), returning false when the context is
// cancelled before the wait completes.
func sleepBackoff(ctx context.Context, rp RetryPolicy, r int) bool {
	base := rp.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	max := rp.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := max
	if r < 30 && base<<uint(r) < max {
		d = base << uint(r)
	}
	// Full jitter: a uniform draw over [0, d] decorrelates retry storms.
	d = time.Duration(rand.Int63n(int64(d) + 1))
	if d == 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// PhaseStat is the accumulated wall time of one named algorithm phase.
type PhaseStat struct {
	Name     string
	Duration time.Duration
}

// RunStats is the algorithm-agnostic report of one discovery run: where
// the wall time went, how much data the hot paths touched, and whether
// the run was cancelled. Every algorithm fills the fields that apply and
// leaves the rest zero; algorithm-specific extras go into Counters.
type RunStats struct {
	// Algorithm is the lower-case algorithm name ("dhyfd", "tane", ...).
	Algorithm string
	// Workers is the validation worker-pool width the run used (>= 1).
	Workers int
	// Phases holds per-phase wall times in first-seen order. A phase
	// entered repeatedly (per level, say) accumulates into one entry.
	Phases []PhaseStat
	// RowsScanned counts row accesses on the hot path: cluster rows fed
	// into partition refinement (for a TANE level join, the rows of the
	// parent it refines) and tuple-pair comparisons.
	RowsScanned int64
	// PartitionsBuilt counts stripped partitions materialized (singles,
	// TANE's level products, DDM refreshes).
	PartitionsBuilt int64
	// PartitionsRefined counts cluster-level refinement steps
	// (Algorithm 5 invocations).
	PartitionsRefined int64
	// CandidatesValidated counts (node, RHS attribute) validations;
	// Invalidated counts how many of those failed.
	CandidatesValidated int64
	Invalidated         int64
	// NonFDs is the number of distinct agree sets collected.
	NonFDs int64
	// Levels is the number of validation levels (or lattice levels)
	// processed.
	Levels int64
	// FDs is the size of the output cover.
	FDs int64
	// Counters holds algorithm-specific extras ("ddm_refreshes",
	// "sampling_rounds", ...). Nil until the first Count call.
	Counters map[string]int64
	// ShardsBuilt counts the items of the agree-set fan-outs — one per
	// partition a sampling pass samples, one per row block of the pair
	// scan — that collected into item-local sets and merged in item
	// order; RowsScattered counts the agree sets those local sets carried
	// into the merges. Both stay zero on one-worker runs, whose items add
	// straight into the shared set.
	ShardsBuilt   int64
	RowsScattered int64
	// ColumnsPaged counts encoded columns served from the relation's
	// mmap-backed column pager rather than the heap; ColumnPageFaults
	// counts pager residency transitions (columns faulted in at bind
	// time or read back after a page-out). Both stay zero for resident
	// relations.
	ColumnsPaged     int64
	ColumnPageFaults int64
	// CacheHits / CacheMisses / CacheEvictions report the shared PLI
	// cache's traffic during the run (all zero when no cache is
	// attached): a hit reused a cached partition — exactly, or as the
	// refinement parent of a superset request — a miss built one from
	// scratch, an eviction shed a least-recently-used partition to
	// respect the cache's byte bound. At workers > 1 the hit/miss split
	// can differ between identical runs while CacheHits + CacheMisses
	// stays fixed: top-k's ranking pass and the post-run soundness gate
	// walk LHS groups concurrently over the run's cache, each walk counts
	// one hit or one miss, and whether it finds a co-atom or prefix
	// another group published depends on scheduling.
	CacheHits, CacheMisses, CacheEvictions int64
	// Cancelled reports that the run stopped early on context
	// cancellation; the other fields then describe the partial run.
	Cancelled bool
	// Degraded reports that the run hit a resource budget and finished in
	// a reduced mode — refinement disabled, deeper levels abandoned —
	// rather than exhausting memory. DegradedReason says which budget and
	// what was given up; the emitted cover remains sound but may be
	// partial.
	Degraded       bool
	DegradedReason string
	// Elapsed is the total wall time of the run, including any elapsed
	// base carried over from a resumed checkpoint (AddElapsed).
	Elapsed time.Duration

	start       time.Time
	elapsedBase time.Duration
}

// NewRunStats returns a report for the named algorithm and starts its
// total-elapsed clock. workers clamps to 1.
func NewRunStats(algorithm string, workers int) *RunStats {
	if workers < 1 {
		workers = 1
	}
	return &RunStats{Algorithm: algorithm, Workers: workers, start: time.Now()}
}

// Phase starts the named phase's stopwatch and returns the function that
// stops it, accumulating into the phase's entry:
//
//	stop := rs.Phase("validate")
//	... work ...
//	stop()
func (s *RunStats) Phase(name string) func() {
	t0 := time.Now()
	return func() { s.AddPhase(name, time.Since(t0)) }
}

// AddPhase accumulates d into the named phase, creating it on first use.
func (s *RunStats) AddPhase(name string, d time.Duration) {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			s.Phases[i].Duration += d
			return
		}
	}
	s.Phases = append(s.Phases, PhaseStat{Name: name, Duration: d})
}

// PhaseDuration returns the accumulated wall time of the named phase
// (zero when the phase never ran).
func (s *RunStats) PhaseDuration(name string) time.Duration {
	for _, p := range s.Phases {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// PhaseTotal returns the sum of all phase durations.
func (s *RunStats) PhaseTotal() time.Duration {
	var total time.Duration
	for _, p := range s.Phases {
		total += p.Duration
	}
	return total
}

// Degrade marks the run degraded. The first reason wins; later calls
// keep it, so callers can report the budget that tripped first.
func (s *RunStats) Degrade(reason string) {
	if !s.Degraded {
		s.Degraded = true
		s.DegradedReason = reason
	}
}

// Count adds delta to the named algorithm-specific counter.
func (s *RunStats) Count(name string, delta int64) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[name] += delta
}

// AddElapsed credits wall time spent before this RunStats existed — the
// elapsed time a resumed checkpoint recorded — so Finish and SinceStart
// report the cumulative cost of the logical run, not just this process's
// share.
func (s *RunStats) AddElapsed(d time.Duration) {
	if d > 0 {
		s.elapsedBase += d
	}
}

// SinceStart is the cumulative wall time of the run so far (including any
// resumed base), readable before Finish — checkpoint snapshots stamp it.
func (s *RunStats) SinceStart() time.Duration {
	return s.elapsedBase + time.Since(s.start)
}

// Finish stamps the total elapsed time and records whether err was a
// cancellation. Call it exactly once, on every return path.
func (s *RunStats) Finish(err error) {
	s.Elapsed = s.elapsedBase + time.Since(s.start)
	if err != nil {
		s.Cancelled = true
	}
}

// String renders a multi-line human-readable summary, the form the cmd
// tools print to stderr.
func (s *RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d FDs in %v (workers=%d", s.Algorithm, s.FDs, s.Elapsed.Round(time.Microsecond), s.Workers)
	if s.Cancelled {
		b.WriteString(", CANCELLED — partial run")
	}
	if s.Degraded {
		fmt.Fprintf(&b, ", DEGRADED — %s", s.DegradedReason)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  validated %d candidates (%d invalidated), %d non-FDs, %d levels\n",
		s.CandidatesValidated, s.Invalidated, s.NonFDs, s.Levels)
	fmt.Fprintf(&b, "  partitions: %d built, %d cluster refinements; %d rows scanned\n",
		s.PartitionsBuilt, s.PartitionsRefined, s.RowsScanned)
	if s.ShardsBuilt+s.RowsScattered > 0 {
		fmt.Fprintf(&b, "  shards: %d built, %d rows scattered\n",
			s.ShardsBuilt, s.RowsScattered)
	}
	if s.ColumnsPaged+s.ColumnPageFaults > 0 {
		fmt.Fprintf(&b, "  column-pager: %d columns paged, %d page faults\n",
			s.ColumnsPaged, s.ColumnPageFaults)
	}
	if s.CacheHits+s.CacheMisses+s.CacheEvictions > 0 {
		fmt.Fprintf(&b, "  pli-cache: %d hits, %d misses, %d evictions\n",
			s.CacheHits, s.CacheMisses, s.CacheEvictions)
	}
	if len(s.Phases) > 0 {
		b.WriteString("  phases:")
		for _, p := range s.Phases {
			fmt.Fprintf(&b, " %s %v", p.Name, p.Duration.Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("  counters:")
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%d", k, s.Counters[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
