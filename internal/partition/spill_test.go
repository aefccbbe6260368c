package partition

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
)

// spillFixture returns a cache with the spill tier rooted in a test
// temp dir, plus a deterministic partition factory: column c yields a
// partition with distinct content so reload corruption is detectable.
func spillFixture(t *testing.T, maxBytes int64, budget *Budget) *Cache {
	t.Helper()
	c := NewCache(maxBytes, budget)
	if err := c.EnableSpill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

func spillPart(seed, nrows int) *Partition {
	col := make([]int32, nrows)
	for i := range col {
		col[i] = int32((i + seed) % (nrows / 2))
	}
	return Single(col, nrows/2)
}

func TestSpillEvictAndReload(t *testing.T) {
	p0 := spillPart(0, 64)
	p1 := spillPart(1, 64)
	cost := Cost(p0)
	// Room for exactly one entry: the second Put spills the first.
	c := spillFixture(t, cost+cost/2, nil)
	k0 := bitset.FromAttrs(4, 0)
	k1 := bitset.FromAttrs(4, 1)
	c.Put(k0, p0)
	c.Put(k1, p1)

	s := c.Stats()
	if s.Spills != 1 || s.Evictions != 0 {
		t.Fatalf("stats after pressure = %+v, want 1 spill, 0 evictions", s)
	}
	if s.SpilledBytes != cost {
		t.Fatalf("SpilledBytes = %d, want %d", s.SpilledBytes, cost)
	}
	if got := c.Get(k1); got != p1 {
		t.Fatal("resident entry lost")
	}

	// Hitting the spilled entry faults it back in (pushing p1 out to
	// disk in turn) with identical content.
	got := c.Get(k0)
	if got == nil {
		t.Fatal("spilled entry missed")
	}
	if !got.Equal(p0) {
		t.Fatal("reloaded partition differs from the original")
	}
	s = c.Stats()
	if s.Reloads != 1 || s.Spills != 2 {
		t.Fatalf("stats after reload = %+v, want 1 reload, 2 spills", s)
	}
	if s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("hit accounting = %+v, want 2 hits", s)
	}
}

func TestSpillReloadByteIdentical(t *testing.T) {
	p := spillPart(3, 200)
	c := spillFixture(t, Cost(p)*2, nil)
	k := bitset.FromAttrs(3, 0)
	c.Put(k, p)
	c.mu.Lock()
	c.evict(c.lru)
	c.mu.Unlock()

	got := c.Get(k)
	if got == nil {
		t.Fatal("reload missed")
	}
	if got.NRows != p.NRows || len(got.backing) != len(p.backing) || len(got.offsets) != len(p.offsets) {
		t.Fatalf("reloaded shape %d/%d/%d, want %d/%d/%d",
			got.NRows, len(got.backing), len(got.offsets), p.NRows, len(p.backing), len(p.offsets))
	}
	for i := range p.backing {
		if got.backing[i] != p.backing[i] {
			t.Fatalf("backing[%d] = %d, want %d", i, got.backing[i], p.backing[i])
		}
	}
	for i := range p.offsets {
		if got.offsets[i] != p.offsets[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, got.offsets[i], p.offsets[i])
		}
	}
}

// TestSpillRespectsBudgetHeadroom pins the evict-to-disk-before-reject
// discipline: inserts the budget's headroom cannot cover go cold instead
// of being dropped, and the budget never latches from cache traffic.
func TestSpillRespectsBudgetHeadroom(t *testing.T) {
	p := spillPart(0, 64)
	cost := Cost(p)
	budget := NewBudget(cost+cost/2, -1)
	c := spillFixture(t, cost*10, budget)
	// Consume most of the headroom outside the cache.
	budget.ChargeBytes(cost)

	c.Put(bitset.FromAttrs(4, 0), p)
	s := c.Stats()
	if s.Bytes != 0 || s.Spills != 1 {
		t.Fatalf("stats = %+v, want the insert to go cold", s)
	}
	if budget.Exhausted() {
		t.Fatal("cache traffic latched the budget")
	}
	// The cold entry still serves; with no headroom it stays cold.
	if got := c.Get(bitset.FromAttrs(4, 0)); got == nil || !got.Equal(p) {
		t.Fatal("cold entry did not serve")
	}
	if s := c.Stats(); s.Bytes != 0 {
		t.Fatalf("cold serve became resident: %+v", s)
	}

	// Returning headroom lets the next hit re-admit it.
	budget.ReleaseBytes(cost)
	if got := c.Get(bitset.FromAttrs(4, 0)); got == nil {
		t.Fatal("reload missed")
	}
	if s := c.Stats(); s.Bytes != cost || s.SpilledBytes != 0 {
		t.Fatalf("stats after re-admission = %+v, want resident", s)
	}
}

func TestSpillTooLargeForBound(t *testing.T) {
	p := spillPart(0, 512)
	c := spillFixture(t, Cost(p)/2, nil) // can never be resident
	k := bitset.FromAttrs(2, 0)
	c.Put(k, p)
	s := c.Stats()
	if s.Spills != 1 || s.Bytes != 0 {
		t.Fatalf("oversized insert stats = %+v, want direct spill", s)
	}
	// Serves cold on every hit, never admitted.
	for i := 0; i < 2; i++ {
		if got := c.Get(k); got == nil || got.Size() != p.Size() {
			t.Fatalf("cold hit %d failed", i)
		}
	}
	if s := c.Stats(); s.Bytes != 0 || s.Reloads != 2 {
		t.Fatalf("cold-serve stats = %+v", s)
	}
}

// TestSpillReloadAllocsPerRun pins a cold serve at exactly two
// allocations, the partition struct and the one array its offsets and
// rows are read back into.
func TestSpillReloadAllocsPerRun(t *testing.T) {
	p := spillPart(0, 512)
	c := spillFixture(t, Cost(p)/2, nil) // never admittable: every hit cold-serves
	k := bitset.FromAttrs(2, 0)
	c.Put(k, p)
	c.Get(k) // size the key buffer
	if a := testing.AllocsPerRun(100, func() { c.Get(k) }); a != 2 {
		t.Errorf("a cold serve allocates %.1f times, want 2", a)
	}
	if s := c.Stats(); s.Reloads != 102 || s.Spills != 1 {
		t.Errorf("reloads/spills = %d/%d, want 102/1", s.Reloads, s.Spills)
	}
}

// TestSpillServedPartitionOutlivesClose: a partition the spill tier
// served is the caller's, so closing the cache (which removes the spill
// file) leaves it readable.
func TestSpillServedPartitionOutlivesClose(t *testing.T) {
	p := spillPart(0, 512)
	c := NewCache(Cost(p)/2, nil) // never admittable: the hit cold-serves
	if err := c.EnableSpill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	k := bitset.FromAttrs(2, 0)
	c.Put(k, p)
	got := c.Get(k)
	if got == nil {
		t.Fatal("cold hit missed")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("served partition changed after Close")
	}
}

// TestSpillDamagedFileDropsEntry: a record the spill file no longer
// holds in full drops its entry, and the cached build recomputes the
// partition.
func TestSpillDamagedFileDropsEntry(t *testing.T) {
	cols := [][]int32{make([]int32, 256), make([]int32, 256)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int32(i%16), int32(i%5)
	}
	cards := []int{16, 5}
	x := bitset.FromAttrs(2, 0, 1)
	want := ForAttrs(x, cols, cards)
	cost := Cost(want)
	c := spillFixture(t, cost/2, nil) // never admittable: Put goes cold
	c.Put(x, want)
	if s := c.Stats(); s.Spills != 1 || s.SpilledBytes != cost || s.Entries != 1 {
		t.Fatalf("setup stats = %+v, want one cold entry of %d bytes", s, cost)
	}
	if err := os.Truncate(c.SpillFile(), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Get(x); got != nil {
		t.Fatal("a truncated record served a partition")
	}
	if s := c.Stats(); s.SpilledBytes != 0 || s.Entries != 0 || s.Reloads != 0 {
		t.Fatalf("stats after the failed reload = %+v, want the entry dropped", s)
	}
	got, reused, err := ForAttrsCached(context.Background(), c, x, cols, cards)
	if err != nil {
		t.Fatal(err)
	}
	if reused || !got.Equal(want) {
		t.Fatalf("rebuild after the dropped entry: reused=%v, equal=%v", reused, got.Equal(want))
	}
}

func TestSpillCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(64, nil)
	if err := c.EnableSpill(dir); err != nil {
		t.Fatal(err)
	}
	path := c.SpillFile()
	if path == "" || filepath.Dir(path) != dir {
		t.Fatalf("SpillFile = %q, want a file in %q", path, dir)
	}
	p := spillPart(0, 256)
	c.Put(bitset.FromAttrs(2, 0), p) // oversized: spills directly
	if st, err := os.Stat(path); err != nil || st.Size() != int64(4*(len(p.offsets)+len(p.backing))) {
		t.Fatalf("spill file after one spill: %v, %v", st, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("spill dir holds %d files after Close, want 0", len(files))
	}
	if c.Len() != 0 || c.SpillFile() != "" {
		t.Fatal("entries or the spill tier survived Close")
	}
	// Idempotent, and safe on nil.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := (*Cache)(nil).Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEnableSpillErrors(t *testing.T) {
	if err := (*Cache)(nil).EnableSpill(t.TempDir()); err == nil {
		t.Fatal("nil cache EnableSpill should error")
	}
	c := NewCache(1<<12, nil)
	if err := c.EnableSpill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.EnableSpill(t.TempDir()); err == nil {
		t.Fatal("double EnableSpill should error")
	}
}
