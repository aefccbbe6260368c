package partition

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
)

// Cache is a size-bounded LRU of stripped partitions keyed by attribute
// set, shared by every subsystem of one discovery run (and by repeated
// runs over the same relation): TANE level joins, DFD lattice walks, DDM
// refreshes and post-run cover verification all consult it before
// rebuilding π_X from scratch. Cached partitions are shared and must be
// treated read-only.
//
// The cache holds at most maxBytes of partition memory (Cost accounting);
// inserting past the bound evicts least-recently-used entries. When a
// Budget is attached the cache additionally charges its resident bytes to
// it — but never past the budget's headroom: rather than tripping the
// run's memory limit, the cache evicts (or rejects the insert), so a
// cache-only configuration can never degrade a run.
//
// All methods are safe for concurrent use and safe on a nil *Cache, which
// behaves as an always-miss cache, so call sites need no guards. Keys are
// attribute sets of one fixed relation; the first Put pins the relation's
// row count and inserts for a different row count are rejected, so a
// cache can never serve a partition of the wrong relation shape.
type Cache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mu       sync.Mutex
	max      int64
	budget   *Budget
	entries  map[string]*cacheEntry
	mru, lru *cacheEntry // doubly-linked recency list
	bytes    int64
	peak     int64 // high-water mark of bytes
	nrows    int   // pinned by the first Put; -1 until then
	spill    *spillState
}

type cacheEntry struct {
	key        string
	attrs      bitset.Set
	part       *Partition // nil while spilled to disk
	cost       int64
	spillPath  string      // spill file, "" while never spilled
	prev, next *cacheEntry // prev = more recent; detached while spilled
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Spills counts entries written to the spill tier, Reloads the
	// spilled entries faulted back in on a hit. Zero without EnableSpill.
	Spills, Reloads int64
	Entries         int
	Bytes           int64
	// PeakBytes is the high-water mark of resident partition bytes;
	// SpilledBytes the cost of currently non-resident spilled entries.
	PeakBytes, SpilledBytes int64
}

// Delta returns the counter movement since an earlier snapshot (gauges
// Entries, Bytes, PeakBytes and SpilledBytes keep their current values).
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Evictions:    s.Evictions - prev.Evictions,
		Spills:       s.Spills - prev.Spills,
		Reloads:      s.Reloads - prev.Reloads,
		Entries:      s.Entries,
		Bytes:        s.Bytes,
		PeakBytes:    s.PeakBytes,
		SpilledBytes: s.SpilledBytes,
	}
}

// NewCache returns a cache bounded by maxBytes of partition memory.
// budget, when non-nil, is additionally charged for the cache's resident
// bytes (never past its headroom). maxBytes <= 0 returns nil — a valid,
// always-miss cache.
func NewCache(maxBytes int64, budget *Budget) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		max:     maxBytes,
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		nrows:   -1,
	}
}

// Stats snapshots the cache counters. Safe on nil (all zero).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		PeakBytes: c.peak,
	}
	if c.spill != nil {
		s.Spills, s.Reloads, s.SpilledBytes = c.spill.spills, c.spill.reloads, c.spill.cold
	}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	return s
}

// Keys returns the attribute sets of up to max resident entries in
// most-recently-used-first order (max <= 0 means all), cloned so callers
// own them. Checkpoint snapshots persist this as the PLI-cache manifest:
// the partitions themselves are recomputable, so a resumed run rebuilds
// them from the key list instead of serializing cluster data. Safe on nil
// (empty).
func (c *Cache) Keys(max int) []bitset.Set {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if max > 0 && max < n {
		n = max
	}
	out := make([]bitset.Set, 0, n)
	for e := c.mru; e != nil && len(out) < n; e = e.next {
		out = append(out, e.attrs.Clone())
	}
	return out
}

// Get returns the cached π_X for the exact attribute set x, or nil on a
// miss. A hit refreshes the entry's recency. The returned partition is
// shared: callers must not mutate it.
func (c *Cache) Get(x bitset.Set) *Partition {
	if c == nil {
		return nil
	}
	p := c.lookup(x)
	if p == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return p
}

// lookup is Get without the hit/miss accounting, for probe paths that
// count the consultation as a whole. A found entry still has its recency
// refreshed, and a hit on a spilled entry faults the partition back in
// from its spill file.
func (c *Cache) lookup(x bitset.Set) *Partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[x.Key()]
	if !ok {
		return nil
	}
	if e.part == nil {
		if c.spill == nil || e.spillPath == "" {
			return nil
		}
		return c.reload(e)
	}
	c.moveToFront(e)
	return e.part
}

// LongestPrefix returns the cached partition over the longest
// ascending-attribute prefix of x (x itself included), plus that prefix's
// attribute set, which the caller owns. Every subsystem publishes
// partitions along the same ascending chain — π_{A}, π_{AB}, π_{ABC} —
// so a prefix walk of O(|x|) keyed probes finds the furthest-along parent
// without scanning the whole cache. It returns (nil, nil) when not even
// x's first attribute is cached. Finding a usable prefix counts as one
// hit (the cache saved most of a build), finding none as one miss; the
// probes themselves leave the counters alone.
func (c *Cache) LongestPrefix(x bitset.Set) (*Partition, bitset.Set) {
	if c == nil {
		return nil, nil
	}
	attrs := x.Attrs()
	if len(attrs) == 0 {
		c.misses.Add(1)
		return nil, nil
	}
	prefix := x.Clone()
	prefix.Clear()
	var best *Partition
	k := 0
	for j, a := range attrs {
		prefix.Add(a)
		p := c.lookup(prefix)
		if p == nil {
			break
		}
		best, k = p, j+1
	}
	if best == nil {
		c.misses.Add(1)
		return nil, nil
	}
	if k < len(attrs) {
		prefix.Remove(attrs[k]) // the walk overshot by one on the miss
	}
	c.hits.Add(1)
	return best, prefix
}

// Put inserts π_X under the attribute set x, evicting LRU entries as
// needed to respect the byte bound and the attached budget's headroom. A
// partition too large for the bound (or for what the budget allows) is
// simply not cached. Re-putting an existing key refreshes its recency and
// replaces the partition.
func (c *Cache) Put(x bitset.Set, p *Partition) {
	if c == nil || p == nil {
		return
	}
	cost := Cost(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nrows < 0 {
		c.nrows = p.NRows
	} else if c.nrows != p.NRows {
		return // partition of a different relation shape
	}
	key := x.Key()
	if old, ok := c.entries[key]; ok {
		c.remove(old)
	}
	if cost > c.max {
		// Too large to ever be resident; with a spill tier it can still
		// live on disk and serve future hits.
		if c.spill != nil {
			c.insertSpilled(key, &cacheEntry{key: key, attrs: x.Clone(), part: p, cost: cost})
		}
		return
	}
	// Evict until the entry fits the byte bound; then make sure the
	// budget's headroom covers it, evicting further if cache bytes can
	// still be returned. With a spill tier, eviction writes to disk and
	// a rejected insert goes cold instead of being dropped.
	for c.bytes+cost > c.max && c.lru != nil {
		c.evict(c.lru)
	}
	for cost > c.budget.Headroom() && c.lru != nil {
		c.evict(c.lru)
	}
	if cost > c.budget.Headroom() {
		if c.spill != nil {
			c.insertSpilled(key, &cacheEntry{key: key, attrs: x.Clone(), part: p, cost: cost})
		}
		return
	}
	e := &cacheEntry{key: key, attrs: x.Clone(), part: p, cost: cost}
	c.entries[key] = e
	c.addBytes(cost)
	c.budget.ChargeBytes(cost)
	c.pushFront(e)
}

// addBytes grows the resident accounting, tracking the high-water mark.
// Callers hold mu.
func (c *Cache) addBytes(n int64) {
	c.bytes += n
	if c.bytes > c.peak {
		c.peak = c.bytes
	}
}

// Len returns the number of cached partitions.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident partition bytes (Cost accounting).
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// remove drops e entirely — resident bytes back to the bound and the
// budget, cold bytes out of the spill accounting (its spill file, if
// any, lives until Close). Callers hold mu.
func (c *Cache) remove(e *cacheEntry) {
	delete(c.entries, e.key)
	if e.part != nil {
		c.bytes -= e.cost
		c.budget.ReleaseBytes(e.cost)
	} else if c.spill != nil {
		c.spill.cold -= e.cost
	}
	c.unlink(e)
}

// unlink detaches e from the recency list; a no-op for entries already
// detached (spilled). Callers hold mu.
func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.mru == e {
		c.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lru == e {
		c.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront links e as the most recent entry. Callers hold mu.
func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.mru
	if c.mru != nil {
		c.mru.prev = e
	}
	c.mru = e
	if c.lru == nil {
		c.lru = e
	}
}

// moveToFront refreshes e's recency. Callers hold mu.
func (c *Cache) moveToFront(e *cacheEntry) {
	if c.mru == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lru = e.prev
	}
	e.prev, e.next = nil, c.mru
	if c.mru != nil {
		c.mru.prev = e
	}
	c.mru = e
}

// ForAttrsCached computes π_X for an attribute set, through the cache
// when c is non-nil, and reports whether the partition was served whole
// from the cache (an exact hit) rather than built or refined from a
// parent — the built/reused split ranking reports. cols and cards describe
// the full relation; X empty yields the full-relation partition and
// touches no counter.
//
// With a cache, an exact hit returns the cached partition; otherwise
// refinement walks down the ascending-attribute prefix chain from the
// longest cached prefix (LongestPrefix) — or, with none cached, from the
// first attribute's single partition — publishing every intermediate
// prefix so later supersets start further along. With a nil cache it
// walks uncached, from the smallest-error single partition exactly like
// ForAttrs. The returned partition may be shared: treat it as read-only.
//
// The start partition is Single, after a context check. Every
// refinement runs on the pool: on a pool of more than one worker it
// shards row-wise (shardSize rows, <= 0 selects DefaultShardSize),
// byte-identically; on a one-worker pool it is the serial kernel, so
// cache contents are interchangeable across widths. On cancellation or
// a pool failure the error returns with no partition; prefixes
// published before it stay cached.
//
//fd:hotpath
func ForAttrsCached(ctx context.Context, pool *engine.Pool, c *Cache, x bitset.Set, cols [][]int32, cards []int, shardSize int) (*Partition, bool, error) {
	if c != nil {
		if p := c.lookup(x); p != nil {
			c.hits.Add(1)
			return p, true, ctx.Err()
		}
	}
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	attrs := x.Attrs()
	if len(attrs) == 0 {
		return fullPartition(nrows), false, ctx.Err()
	}
	var p *Partition
	var prefix bitset.Set
	if c == nil {
		orderForRefine(attrs, cards, nrows)
	} else {
		p, prefix = c.LongestPrefix(x)
	}
	k := 0
	if p != nil {
		k = prefix.Count()
	} else {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		a := attrs[0]
		p = Single(cols[a], cards[a])
		if c != nil {
			prefix = x.Clone()
			prefix.Clear()
			prefix.Add(a)
			c.Put(prefix, p)
		}
		k = 1
	}
	for _, a := range attrs[k:] {
		if len(p.Clusters) > 0 {
			var err error
			if p, err = refineSharded(ctx, pool, p, cols[a], cards[a], shardSize); err != nil {
				return nil, false, err
			}
		} else if c == nil {
			break
		}
		if c != nil {
			prefix.Add(a)
			c.Put(prefix, p)
		}
	}
	return p, false, nil
}

// ForGroups takes π_LHS once for each LHS group of an FD list
// (dep.GroupByLHS) and hands it to fn, with ForAttrsCached's reused
// flag, on the worker that took the group. The groups fan out over pool
// and each walk runs on a one-worker pool: the groups, not the walk, are
// the parallel unit, so cache contents match the serial pass at every
// width. A walk fails only on cancellation; its group is then skipped
// and the returned error is Run's.
func ForGroups(ctx context.Context, pool *engine.Pool, c *Cache, groups []dep.Group, cols [][]int32, cards []int, fn func(w int, g dep.Group, p *Partition, reused bool)) error {
	walk := engine.NewPool(1)
	return pool.Run(ctx, len(groups), func(w, gi int) {
		p, reused, err := ForAttrsCached(ctx, walk, c, groups[gi].LHS, cols, cards, 0)
		if err != nil {
			return
		}
		fn(w, groups[gi], p, reused)
	})
}
