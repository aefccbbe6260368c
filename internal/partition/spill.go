package partition

import (
	"fmt"
	"os"
	"unsafe"
)

// The spill tier turns the cache into two levels: resident partitions
// under the byte bound (and the budget's headroom), plus cold entries
// whose two arrays live in one append-only temp file under the spill
// directory. Eviction pressure spills before it discards — a cold entry
// costs file space instead of a rebuild — and a lookup hit on a spilled
// entry reads the partition back into the heap with one positioned read.
//
// The spill file is private to one cache and one process: it is written
// and read in native byte order, never reopened by name, and removed by
// Close. An entry's record is its partition's offsets then its rows,
// exactly as they lie in memory, at the file offset the entry keeps; the
// record's length follows from the offsets length and ‖π‖ the entry also
// keeps. Re-spilling a reloaded entry reuses its record, since partition
// content is immutable. Records of dropped entries are not reclaimed
// before Close.

// spillState is the cache's spill-tier state, attached by EnableSpill.
type spillState struct {
	f       *os.File
	end     int64 // append offset: the file's length as the cache wrote it
	spills  int64 // entries written out (cumulative)
	reloads int64 // entries read back in (cumulative)
	cold    int64 // bytes of currently non-resident spilled entries
}

// EnableSpill attaches an out-of-core tier to the cache: entries the
// byte bound or the budget's headroom would evict (or reject) append
// their rows and offsets to a temp file under dir ("" selects the system
// temp directory) and are read back on their next hit. Close removes the
// file. Enabling twice is an error, as is enabling on a nil cache (there
// is nothing to spill through).
func (c *Cache) EnableSpill(dir string) error {
	if c == nil {
		return fmt.Errorf("partition: EnableSpill on a nil cache")
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("partition: spill dir: %w", err)
		}
	}
	f, err := os.CreateTemp(dir, "plispill-*")
	if err != nil {
		return fmt.Errorf("partition: spill file: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("partition: spill tier already enabled")
	}
	c.spill = &spillState{f: f}
	return nil
}

// SpillFile returns the path of the cache's spill file, or "" when the
// spill tier is not enabled. Safe on nil.
func (c *Cache) SpillFile() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill == nil {
		return ""
	}
	return c.spill.f.Name()
}

// Close releases the spill tier — closing and removing the spill file —
// and purges the cache. Partitions the cache served stay valid: a
// reloaded partition lives on the heap, not in the file. Safe on nil and
// without a spill tier (purge only); idempotent.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.remove(e)
	}
	var err error
	if c.spill != nil {
		err = c.spill.f.Close()
		if rerr := os.Remove(c.spill.f.Name()); err == nil {
			err = rerr
		}
		c.spill = nil
	}
	return err
}

// evict relieves pressure from the LRU end: with a spill tier the victim
// goes to disk and stays retrievable, without one (or when the write
// fails) it is discarded and counted as an eviction. Callers hold mu.
func (c *Cache) evict(e *cacheEntry) {
	if c.spill != nil && c.spillEntry(e) {
		return
	}
	c.remove(e)
	c.evictions.Add(1)
}

// spillEntry writes e's partition out (reusing its record when it already
// has one) and drops its residency: off the recency list, bytes back to
// the bound and the budget. Callers hold mu. Returns false when the
// write failed, leaving e untouched.
func (c *Cache) spillEntry(e *cacheEntry) bool {
	if e.spillAt < 0 && !c.writeSpill(e) {
		return false
	}
	e.part = nil
	c.unlink(e)
	c.bytes -= e.cost
	c.budget.ReleaseBytes(e.cost)
	c.spill.spills++
	c.spill.cold += e.cost
	return true
}

// insertSpilled admits a partition the resident tier has no room for
// directly into the cold tier: evict-to-disk instead of rejecting the
// insert. Callers hold mu.
func (c *Cache) insertSpilled(key string, e *cacheEntry) bool {
	if !c.writeSpill(e) {
		return false
	}
	e.part = nil
	c.entries[key] = e
	c.spill.spills++
	c.spill.cold += e.cost
	return true
}

// reload reads a spilled entry back in and tries to re-admit it to the
// resident tier under the usual eviction discipline. When even spilling
// every other entry leaves no room, the partition is still returned —
// invisible to the byte accounting — and the entry stays cold. Callers
// hold mu.
func (c *Cache) reload(e *cacheEntry) *Partition {
	p := c.readSpill(e)
	if p == nil {
		// The record is short or unreadable: drop the entry, the
		// partition is recomputable.
		delete(c.entries, e.key)
		c.spill.cold -= e.cost
		return nil
	}
	c.spill.reloads++
	for c.bytes+e.cost > c.max && c.lru != nil {
		c.evict(c.lru)
	}
	for e.cost > c.budget.Headroom() && c.lru != nil {
		c.evict(c.lru)
	}
	if e.cost > c.max || e.cost > c.budget.Headroom() {
		return p // served cold: stays spilled, nothing charged
	}
	e.part = p
	c.addBytes(e.cost)
	c.budget.ChargeBytes(e.cost)
	c.pushFront(e)
	c.spill.cold -= e.cost
	return p
}

// writeSpill appends e's offsets and rows to the spill file and records
// where they went. A failed write leaves e without a record (the bytes
// past the append offset are overwritten by the next record). Callers
// hold mu.
func (c *Cache) writeSpill(e *cacheEntry) bool {
	s := c.spill
	at := s.end
	offs := int32Bytes(e.part.offsets)
	if _, err := s.f.WriteAt(offs, at); err != nil {
		return false
	}
	rows := int32Bytes(e.part.backing)
	if _, err := s.f.WriteAt(rows, at+int64(len(offs))); err != nil {
		return false
	}
	s.end += int64(len(offs) + len(rows))
	e.spillAt, e.spillOffs = at, len(e.part.offsets)
	return true
}

// readSpill reads e's record back into one heap array, offsets then rows,
// and returns the partition over it; nil when the read fails or comes up
// short. Callers hold mu.
func (c *Cache) readSpill(e *cacheEntry) *Partition {
	buf := make([]int32, e.spillOffs+e.size)
	if _, err := c.spill.f.ReadAt(int32Bytes(buf), e.spillAt); err != nil {
		return nil
	}
	return &Partition{NRows: c.nrows, offsets: buf[:e.spillOffs:e.spillOffs], backing: buf[e.spillOffs:]}
}

// int32Bytes views an int32 slice as its raw native-order bytes, so the
// spill file's writes and reads move the arrays without a copy.
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}
