package runstate

import (
	"context"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/topk"
)

// manifestMax caps how many PLI-cache keys a checkpoint snapshot records.
const manifestMax = 64

// Options is the run wiring every discovery driver shares. Each driver's
// Config embeds it (or is it, when the algorithm has no knobs of its own),
// so Discover builds it once for whichever algorithm runs. A field an
// algorithm has no use for is ignored: the row-based FDEP variants hold no
// partitions, and only the lattice algorithms fuse top-k or relax validity.
type Options struct {
	// Workers sets the engine.Pool width of the run's parallel passes,
	// each fanning out over its own items (columns, refinement jobs,
	// FD-nodes, LHS groups, sampled partitions, pair-scan row blocks).
	// Values below 2 keep the published serial behaviour.
	Workers int
	// Budget optionally bounds partition memory. On exhaustion a run stops
	// spending memory — DHyFD stops refreshing its DDM, TANE abandons
	// deeper levels, DFD abandons its remaining walks — and flags the
	// report Degraded; whatever it returns stays sound. Nil means
	// unlimited.
	Budget *partition.Budget
	// Cache optionally shares stripped partitions across the run (and
	// across runs over the same relation): lookups consult it before
	// building and publish what they build. Nil disables caching.
	Cache *partition.Cache
	// TopK, when non-nil, fuses redundancy-ranked top-k selection into the
	// search: validated FDs are offered to the collector scored by
	// ‖π_LHS‖, branches whose score bound cannot beat the admission
	// threshold are skipped, and the run returns the collector's FDs in
	// ranking order instead of the full cover.
	TopK *topk.Collector
	// MaxViolations relaxes validation to the g3-style bound: X → A counts
	// as valid while at most MaxViolations rows must be deleted for it to
	// hold exactly. 0 keeps exact discovery.
	MaxViolations int
	// Checkpoint, when non-nil, snapshots the driver's frontier at its
	// search boundaries so a killed run can resume. Nil disables
	// durability.
	Checkpoint *Checkpointer
	// Resume, when non-nil, seeds the run from a snapshot the caller has
	// already fingerprint-matched.
	Resume *Snapshot
	// Retries bounds supervised re-runs of transiently failed pool items
	// (capped exponential backoff with full jitter). 0 disables retries.
	Retries int
}

// Harness is the wiring one driver execution shares with every other
// driver: the run report, the retry-supervised pool, the resumed report
// base, the cache-traffic baseline, checkpoint capture and the epilogue
// folds. A driver owns only its search frontier and its own counters.
type Harness struct {
	// Stats is the run report the driver fills with its own counters.
	Stats *engine.RunStats
	// Pool is the run's worker pool, supervised by the Retries policy.
	Pool *engine.Pool

	opts   Options
	cache0 partition.CacheStats
	ended  bool
}

// Start begins a run of the named algorithm: a fresh report seeded with
// the resumed snapshot's phases, elapsed time and cache bases, the
// retry-supervised pool, and the cache baseline End folds the delta of.
func Start(algorithm string, opts Options) *Harness {
	h := &Harness{
		Stats:  engine.NewRunStats(algorithm, opts.Workers),
		Pool:   engine.NewPoolRetry(opts.Workers, engine.RetryPolicy{Max: opts.Retries}),
		opts:   opts,
		cache0: opts.Cache.Stats(),
	}
	if opts.Resume != nil {
		opts.Resume.Stats.Apply(h.Stats)
	}
	return h
}

// Tick offers a search boundary to the checkpointer. Capturing a frontier
// clones driver state (the FD-tree, candidate sets, emitted FDs), so
// capture runs only when the checkpointer is due or the boundary is
// forced (terminal, cancellation). capture returns the driver's part of
// the snapshot — frontier, tree, non-FD set — and Tick adds the report,
// cache-traffic totals, top-k heap and PLI-cache manifest.
func (h *Harness) Tick(force bool, capture func() *Snapshot) {
	cp := h.opts.Checkpoint
	if cp == nil || (!force && !cp.Due()) {
		return
	}
	s := capture()
	s.Stats = StatsSnapOf(h.Stats)
	d := h.opts.Cache.Stats().Delta(h.cache0)
	s.Stats.CacheHits = h.Stats.CacheHits + d.Hits
	s.Stats.CacheMisses = h.Stats.CacheMisses + d.Misses
	s.Stats.CacheEvicts = h.Stats.CacheEvictions + d.Evictions
	s.TopK = TopKSnapOf(h.opts.TopK)
	s.Manifest = ManifestOf(h.opts.Cache, manifestMax)
	s.Frontier.Version = 1
	_ = cp.Tick(s)
}

// WarmCache rebuilds a resumed snapshot's PLI-cache manifest into the
// run's cache, least-recent-first so the restored recency order matches
// the captured one. Each entry is one partition.ForAttrsCached build, so
// later manifest entries refine from earlier ones where possible: from a
// cached co-atom, else from the longest cached prefix. It runs to the
// end whatever ctx says: a cancellation lands at the run's first search
// boundary instead. No-op without a cache or a resumed snapshot.
func (h *Harness) WarmCache(ctx context.Context, r *relation.Relation) {
	c, s := h.opts.Cache, h.opts.Resume
	if c == nil || s == nil {
		return
	}
	ctx = context.WithoutCancel(ctx)
	keys := s.Manifest.Keys
	for i := len(keys) - 1; i >= 0; i-- {
		// A walk fails only on cancellation, which ctx rules out.
		_, _, _ = partition.ForAttrsCached(ctx, c, keys[i], r.Cols, r.Cards)
	}
}

// End closes the run: the pool's retry and shard counters, the cache
// delta and the top-k traffic fold into the report exactly once, and the
// report is finished with err. Under a fused top-k the collector's FDs
// replace fds — each was individually validated, so they stand as a sound
// top-k in ranking order even when err is set; otherwise a failed run
// returns no cover.
func (h *Harness) End(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
	rs := h.Stats
	if !h.ended {
		h.ended = true
		h.Pool.FoldRetryStats(rs)
		h.Pool.FoldShardStats(rs)
		d := h.opts.Cache.Stats().Delta(h.cache0)
		rs.CacheHits += d.Hits
		rs.CacheMisses += d.Misses
		rs.CacheEvictions += d.Evictions
		if h.opts.TopK != nil {
			admitted, rejected, pruned := h.opts.TopK.Counters()
			rs.Count("topk_admitted", admitted)
			rs.Count("topk_rejected", rejected)
			rs.Count("topk_pruned_branches", pruned)
		}
	}
	rs.Finish(err)
	switch {
	case h.opts.TopK != nil:
		fds = h.opts.TopK.FDs()
	case err != nil:
		fds = nil
	}
	rs.FDs = int64(len(fds))
	return fds, rs, err
}

// Recover, deferred at the top of a driver's Run, turns a panic on the
// driver goroutine into a *engine.PanicError and closes the run through
// End, so a panicking run reports the same folds as a failing one:
//
//	h := runstate.Start("tane", opts)
//	defer h.Recover(&fds, &rs, &err)
func (h *Harness) Recover(fds *[]dep.FD, rs **engine.RunStats, err *error) {
	if rec := recover(); rec != nil {
		*fds, *rs, *err = h.End(nil, engine.NewPanicError(h.Stats.Algorithm, rec))
	}
}
