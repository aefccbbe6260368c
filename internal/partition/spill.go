package partition

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/spillfile"
)

// The spill tier turns the cache into two levels: resident partitions
// under the byte bound (and the budget's headroom), plus cold entries
// whose two arrays live in temp files under the spill directory.
// Eviction pressure spills before it discards — a cold entry costs a
// file instead of a rebuild — and a lookup hit on a spilled entry faults
// the partition back in transparently (memory-mapped on platforms that
// support it, so clean pages stay reclaimable by the OS and resident set
// stays bounded even when callers retain the partition).
//
// Spill files are private to one cache and one process: they are written
// and read in native byte order and removed by Close. A file holds a
// partition's two flat arrays, offsets then rows, exactly as they lie in
// memory, and re-spilling a reloaded entry reuses its file, since
// partition content is immutable.

// The container format (magic, header layout, int32 views, the mmap
// helpers and the mapping cap) lives in internal/spillfile, shared with
// the relation's column pager. The aliases below keep this package's
// vocabulary.
const (
	maxSpillMappings = spillfile.MaxMappings
	spillHeaderBytes = spillfile.HeaderBytes // magic + nrows, noffsets, nbacking
)

// spillState is the cache's spill-tier state, attached by EnableSpill.
type spillState struct {
	dir     string   // private temp dir under the user's spill dir
	seq     int      // file-name sequence
	maps    [][]byte // live mappings, released by Close
	spills  int64    // entries written out (cumulative)
	reloads int64    // entries faulted back in (cumulative)
	cold    int64    // bytes of currently non-resident spilled entries
}

// EnableSpill attaches an out-of-core tier to the cache: entries the
// byte bound or the budget's headroom would evict (or reject) write
// their rows and offsets to temp files under dir ("" selects the system
// temp directory) and fault back in on their next hit. The cache owns a
// private subdirectory; Close removes it. Enabling twice is an error,
// as is enabling on a nil cache (there is nothing to spill through).
func (c *Cache) EnableSpill(dir string) error {
	if c == nil {
		return fmt.Errorf("partition: EnableSpill on a nil cache")
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("partition: spill dir: %w", err)
		}
	}
	private, err := os.MkdirTemp(dir, "plispill-")
	if err != nil {
		return fmt.Errorf("partition: spill dir: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill != nil {
		os.RemoveAll(private)
		return fmt.Errorf("partition: spill tier already enabled")
	}
	c.spill = &spillState{dir: private}
	return nil
}

// SpillDir returns the cache's private spill directory, or "" when the
// spill tier is not enabled. Safe on nil.
func (c *Cache) SpillDir() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill == nil {
		return ""
	}
	return c.spill.dir
}

// Close releases the spill tier — unmapping every reloaded partition and
// removing the spill directory — and purges the cache. Call it only
// once no partition served by the cache is referenced anymore: mapped
// partitions alias the mappings Close tears down. Safe on nil and
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
		for _, m := range c.spill.maps {
			spillfile.Unmap(m)
		}
		c.spill.maps = nil
		err = os.RemoveAll(c.spill.dir)
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

// spillEntry writes e's partition out (reusing its file when it already
// has one) and drops its residency: off the recency list, bytes back to
// the bound and the budget. Callers hold mu. Returns false when the
// write failed, leaving e untouched.
func (c *Cache) spillEntry(e *cacheEntry) bool {
	if e.spillPath == "" {
		path, err := c.writeSpill(e.part)
		if err != nil {
			return false
		}
		e.spillPath = path
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
	path, err := c.writeSpill(e.part)
	if err != nil {
		return false
	}
	e.spillPath = path
	e.part = nil
	c.entries[key] = e
	c.spill.spills++
	c.spill.cold += e.cost
	return true
}

// reload faults a spilled entry back in and tries to re-admit it to the
// resident tier under the usual eviction discipline. When even spilling
// every other entry leaves no room, the partition is still returned —
// backed by its mapping, invisible to the byte accounting — and the
// entry stays cold. Callers hold mu.
func (c *Cache) reload(e *cacheEntry) *Partition {
	p, m, err := c.readSpill(e.spillPath)
	if err != nil {
		// The file is gone or damaged: drop the entry, the partition is
		// recomputable.
		delete(c.entries, e.key)
		c.spill.cold -= e.cost
		return nil
	}
	if m != nil {
		c.spill.maps = append(c.spill.maps, m)
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

// writeSpill writes p's offsets and rows into a fresh spill file.
// Callers hold mu.
func (c *Cache) writeSpill(p *Partition) (string, error) {
	c.spill.seq++
	path := filepath.Join(c.spill.dir, fmt.Sprintf("p%06d.pli", c.spill.seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	hdr := spillfile.EncodeHeader(p.NRows, len(p.offsets), len(p.backing))
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(spillfile.Int32Bytes(p.offsets))
	}
	if err == nil {
		_, err = f.Write(spillfile.Int32Bytes(p.backing))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// readSpill decodes a spill file back into a partition. On
// platforms with mmap the returned partition aliases the returned
// mapping (nil otherwise), which stays valid until Close unmaps it.
// Once maxSpillMappings mappings are live the read lands on the heap
// instead, so reload-heavy runs stay within the kernel's map limit.
func (c *Cache) readSpill(path string) (*Partition, []byte, error) {
	var buf, m []byte
	var err error
	if len(c.spill.maps) < maxSpillMappings {
		buf, m, err = spillfile.Map(path)
	} else {
		buf, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, err
	}
	fail := func(msg string) (*Partition, []byte, error) {
		spillfile.Unmap(m)
		return nil, nil, fmt.Errorf("partition: spill file %s: %s", path, msg)
	}
	if !spillfile.HasMagic(buf) {
		return fail("bad header")
	}
	nrows, noffs, nback := spillfile.DecodeHeader(buf)
	// Offsets are empty only in the zero value, which holds no rows.
	if len(buf) != spillHeaderBytes+4*(noffs+nback) || noffs == 0 && nback > 0 {
		return fail("truncated")
	}
	offsets := spillfile.BytesInt32(buf[spillHeaderBytes : spillHeaderBytes+4*noffs])
	backing := spillfile.BytesInt32(buf[spillHeaderBytes+4*noffs:])
	return &Partition{NRows: nrows, backing: backing, offsets: offsets}, m, nil
}
