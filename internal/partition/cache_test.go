package partition

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
)

func TestCacheNilSafety(t *testing.T) {
	if NewCache(0, nil) != nil || NewCache(-1, nil) != nil {
		t.Fatal("non-positive capacity must return the nil always-miss cache")
	}
	var c *Cache
	x := bitset.FromAttrs(4, 1)
	if c.Get(x) != nil {
		t.Error("nil cache Get should miss")
	}
	c.Put(x, testPart(4, []int32{0, 1}))
	if p, a := c.LongestPrefix(x); p != nil || a != nil {
		t.Error("nil cache LongestPrefix should return nothing")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Error("nil cache should be empty")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Each entry: one 2-row cluster = 24 + 8 = 32 bytes. Room for 3.
	c := NewCache(96, nil)
	keys := make([]bitset.Set, 4)
	for i := range keys {
		keys[i] = bitset.FromAttrs(8, i)
	}
	for i := 0; i < 3; i++ {
		c.Put(keys[i], testPart(10, []int32{int32(2 * i), int32(2*i + 1)}))
	}
	if c.Len() != 3 || c.Bytes() != 96 {
		t.Fatalf("len=%d bytes=%d after 3 puts", c.Len(), c.Bytes())
	}
	// Refresh key 0; key 1 becomes least recently used.
	if c.Get(keys[0]) == nil {
		t.Fatal("expected hit on key 0")
	}
	c.Put(keys[3], testPart(10, []int32{6, 7}))
	if c.Get(keys[1]) != nil {
		t.Error("key 1 should have been evicted as LRU")
	}
	for _, i := range []int{0, 2, 3} {
		if c.Get(keys[i]) == nil {
			t.Errorf("key %d should still be cached", i)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 4 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1", s.Hits, s.Misses)
	}
}

func TestCacheRejectsOversizedPartition(t *testing.T) {
	c := NewCache(40, nil)
	big := testPart(100, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // 24 + 40 bytes
	c.Put(bitset.FromAttrs(4, 0), big)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("oversized partition cached: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestCacheRePutReplaces(t *testing.T) {
	c := NewCache(1<<10, nil)
	x := bitset.FromAttrs(4, 0)
	c.Put(x, testPart(10, []int32{0, 1}))
	repl := testPart(10, []int32{2, 3}, []int32{4, 5})
	c.Put(x, repl)
	if c.Len() != 1 {
		t.Fatalf("len = %d after re-put", c.Len())
	}
	if got := c.Get(x); got != repl {
		t.Error("re-put did not replace the partition")
	}
	if c.Bytes() != Cost(repl) {
		t.Errorf("bytes = %d, want %d", c.Bytes(), Cost(repl))
	}
}

// TestCacheGetAllocsPerRun pins a probe, hit or miss, at zero
// allocations: the key is built in the cache's own buffer. TANE probes
// every level product, and on a fresh cache none of them hits.
func TestCacheGetAllocsPerRun(t *testing.T) {
	c := NewCache(1<<10, nil)
	hit, miss := bitset.FromAttrs(100, 0), bitset.FromAttrs(100, 1, 70)
	c.Put(hit, testPart(10, []int32{0, 1}))
	c.Get(miss) // size the key buffer
	if a := testing.AllocsPerRun(100, func() { c.Get(miss) }); a != 0 {
		t.Errorf("a missing Get allocates %.1f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Get(hit) }); a != 0 {
		t.Errorf("a hitting Get allocates %.1f times", a)
	}
	if s := c.Stats(); s.Hits != 101 || s.Misses != 102 {
		t.Errorf("hits/misses = %d/%d, want 101/102", s.Hits, s.Misses)
	}
}

func TestCachePinsRowCount(t *testing.T) {
	c := NewCache(1<<10, nil)
	c.Put(bitset.FromAttrs(4, 0), testPart(6, []int32{0, 1}))
	other := bitset.FromAttrs(4, 1)
	c.Put(other, testPart(8, []int32{0, 1})) // different relation shape
	if c.Get(other) != nil {
		t.Error("partition of a different row count must not be cached")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestCacheYieldsToBudgetHeadroom(t *testing.T) {
	// The run holds 40 of 100 bytes; headroom is 60. Entries cost 32.
	budget := NewBudget(100, -1)
	budget.ChargeBytes(40)
	c := NewCache(1<<20, budget)
	c.Put(bitset.FromAttrs(8, 0), testPart(10, []int32{0, 1}))
	if c.Len() != 1 || budget.LiveBytes() != 72 {
		t.Fatalf("len=%d live=%d after first put", c.Len(), budget.LiveBytes())
	}
	// A second 32-byte entry exceeds the 28-byte headroom: the cache must
	// evict its own entry rather than trip the budget.
	c.Put(bitset.FromAttrs(8, 1), testPart(10, []int32{2, 3}))
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1 (evict-to-fit)", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if budget.Exhausted() {
		t.Error("cache charging must never exhaust the budget")
	}

	// With nothing left to evict and no headroom, inserts are rejected.
	tight := NewBudget(50, -1)
	tight.ChargeBytes(40)
	c2 := NewCache(1<<20, tight)
	c2.Put(bitset.FromAttrs(8, 0), testPart(10, []int32{0, 1}))
	if c2.Len() != 0 {
		t.Errorf("len = %d, want 0 (reject when over headroom)", c2.Len())
	}
	if tight.Exhausted() {
		t.Error("rejected insert must not exhaust the budget")
	}
}

func TestCacheEvictionReturnsBudgetBytes(t *testing.T) {
	budget := NewBudget(-1, -1)
	c := NewCache(64, budget) // room for two 32-byte entries
	for i := 0; i < 3; i++ {
		c.Put(bitset.FromAttrs(8, i), testPart(10, []int32{int32(2 * i), int32(2*i + 1)}))
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if budget.LiveBytes() != c.Bytes() {
		t.Errorf("budget live bytes %d != cache bytes %d", budget.LiveBytes(), c.Bytes())
	}
}

func TestCacheLongestPrefix(t *testing.T) {
	c := NewCache(1<<10, nil)
	p0 := testPart(10, []int32{0, 1, 2, 3, 4})
	p01 := testPart(10, []int32{0, 1})
	p2 := testPart(10, []int32{5, 6, 7})
	c.Put(bitset.FromAttrs(4, 0), p0)
	c.Put(bitset.FromAttrs(4, 0, 1), p01)
	c.Put(bitset.FromAttrs(4, 2), p2)

	got, attrs := c.LongestPrefix(bitset.FromAttrs(4, 0, 1, 3))
	if got != p01 || !attrs.Equal(bitset.FromAttrs(4, 0, 1)) {
		t.Errorf("LongestPrefix picked %v, want the {0,1} entry", attrs)
	}
	// An exact key qualifies as its own longest prefix.
	got, attrs = c.LongestPrefix(bitset.FromAttrs(4, 0))
	if got != p0 || !attrs.Equal(bitset.FromAttrs(4, 0)) {
		t.Errorf("LongestPrefix(0) = %v, want the {0} entry", attrs)
	}
	got, attrs = c.LongestPrefix(bitset.FromAttrs(4, 2, 3))
	if got != p2 || !attrs.Equal(bitset.FromAttrs(4, 2)) {
		t.Errorf("LongestPrefix(2,3) = %v, want the {2} entry", attrs)
	}
	// The walk is an ascending prefix chain: a cached {2} does not help
	// {1,2} when {1} itself is missing.
	if got, _ := c.LongestPrefix(bitset.FromAttrs(4, 1, 2)); got != nil {
		t.Errorf("LongestPrefix(1,2) = %v, want nil", got)
	}
	if got, _ := c.LongestPrefix(bitset.FromAttrs(4, 3)); got != nil {
		t.Errorf("LongestPrefix with no cached prefix = %v, want nil", got)
	}
	// Partial reuse is a hit; a fruitless walk is a miss.
	if s := c.Stats(); s.Hits != 3 || s.Misses != 2 {
		t.Errorf("LongestPrefix counters = %+v, want 3 hits / 2 misses", s)
	}
}

func TestForAttrsCachedMatchesForAttrs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	nrows, ncols := 200, 5
	cols := make([][]int32, ncols)
	cards := make([]int, ncols)
	for c := range cols {
		card := 1 + rng.Intn(20)
		col := make([]int32, nrows)
		maxv := int32(0)
		for i := range col {
			col[i] = int32(rng.Intn(card))
			if col[i] > maxv {
				maxv = col[i]
			}
		}
		cols[c], cards[c] = col, int(maxv)+1
	}
	cache := NewCache(1<<20, nil)
	for trial := 0; trial < 60; trial++ {
		x := bitset.New(ncols)
		for a := 0; a < ncols; a++ {
			if rng.Intn(2) == 0 {
				x.Add(a)
			}
		}
		want := ForAttrs(x, cols, cards)
		got, _, err := ForAttrsCached(ctx, cache, x, cols, cards)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: cached π_%v differs from ForAttrs", trial, x.Attrs())
		}
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Error("repeated random sets should produce exact-key hits")
	}
	// A cancelled walk builds nothing, with or without a cache.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, c := range []*Cache{nil, NewCache(1<<20, nil)} {
		if p, _, err := ForAttrsCached(cancelled, c, bitset.FromAttrs(ncols, 0, 1), cols, cards); p != nil || err == nil {
			t.Errorf("cancelled walk (cache %v) = %v, %v; want no partition and ctx's error", c != nil, p, err)
		}
	}
	// Under a tiny bound the cache thrashes but results stay correct.
	tiny := NewCache(64, nil)
	for trial := 0; trial < 30; trial++ {
		x := bitset.New(ncols)
		x.Add(rng.Intn(ncols))
		x.Add(rng.Intn(ncols))
		want := ForAttrs(x, cols, cards)
		got, _, err := ForAttrsCached(ctx, tiny, x, cols, cards)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("tiny cache trial %d: π_%v differs", trial, x.Attrs())
		}
	}
}

// coatomCols is a 12-row relation whose co-atoms of {0,1,2} differ in
// ‖π‖: π_{1,2} holds 8 rows, π_{0,1} and π_{0,2} 12 each.
func coatomCols() ([][]int32, []int) {
	cols := [][]int32{
		{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1},
		{0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1},
		{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5},
	}
	return cols, []int{2, 2, 6}
}

// putAttrs caches π of each attribute set in turn, built by ForAttrs.
func putAttrs(c *Cache, cols [][]int32, cards []int, sets ...bitset.Set) {
	for _, x := range sets {
		c.Put(x, ForAttrs(x, cols, cards))
	}
}

// TestForAttrsCachedCoatomStart pins the co-atom start: of X's cached
// co-atoms the one with the smallest ‖π‖ is refined, only it has its
// recency refreshed, the build counts one hit and no miss, and π_X is
// published as it is not an exact hit.
func TestForAttrsCachedCoatomStart(t *testing.T) {
	cols, cards := coatomCols()
	x := bitset.FromAttrs(3, 0, 1, 2)
	s12, s01, s02 := bitset.FromAttrs(3, 1, 2), bitset.FromAttrs(3, 0, 1), bitset.FromAttrs(3, 0, 2)
	c := NewCache(1<<20, nil)
	putAttrs(c, cols, cards, s12, s01, s02)
	if got := c.Keys(0); !slices.EqualFunc(got, []bitset.Set{s02, s01, s12}, bitset.Set.Equal) {
		t.Fatalf("recency before the build = %v", got)
	}
	p, reused, err := ForAttrsCached(context.Background(), c, x, cols, cards)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("a co-atom start is not an exact hit")
	}
	if !p.Equal(ForAttrs(x, cols, cards)) {
		t.Error("π_X from the co-atom start differs from ForAttrs")
	}
	// π_{1,2} (8 rows) beats the two 12-row co-atoms; a probe that
	// refreshed every co-atom would also swap {0,2} and {0,1}.
	if got, want := c.Keys(0), []bitset.Set{x, s12, s02, s01}; !slices.EqualFunc(got, want, bitset.Set.Equal) {
		t.Errorf("recency after the build = %v, want %v", got, want)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("co-atom start counted %d hits, %d misses, want 1 and 0", s.Hits, s.Misses)
	}
	// A tie goes to the lowest b: {0,2} (b = 1) before {0,1} (b = 2).
	tie := NewCache(1<<20, nil)
	putAttrs(tie, cols, cards, s02, s01)
	if _, _, err := ForAttrsCached(context.Background(), tie, x, cols, cards); err != nil {
		t.Fatal(err)
	}
	if got, want := tie.Keys(0), []bitset.Set{x, s02, s01}; !slices.EqualFunc(got, want, bitset.Set.Equal) {
		t.Errorf("tied co-atoms: recency = %v, want %v", got, want)
	}
}

// TestForAttrsCachedCoatomSpilled: the probe compares a spilled
// co-atom's ‖π‖ without faulting it in, so it is reloaded only when it
// is the one chosen.
func TestForAttrsCachedCoatomSpilled(t *testing.T) {
	cols, cards := coatomCols()
	x := bitset.FromAttrs(3, 0, 1, 2)
	small, large := bitset.FromAttrs(3, 1, 2), bitset.FromAttrs(3, 0, 1)
	want := ForAttrs(x, cols, cards)
	for _, tc := range []struct {
		name        string
		first, then bitset.Set // the second Put spills the first
		reloads     int64
	}{
		{"chosen spilled", small, large, 1},
		{"other spilled", large, small, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := spillFixture(t, 200, nil) // room for one co-atom
			putAttrs(c, cols, cards, tc.first, tc.then)
			if s := c.Stats(); s.Spills != 1 || s.Entries != 2 {
				t.Fatalf("setup: %+v, want one of two co-atoms spilled", s)
			}
			p, _, err := ForAttrsCached(context.Background(), c, x, cols, cards)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Equal(want) {
				t.Error("π_X differs from ForAttrs")
			}
			if s := c.Stats(); s.Reloads != tc.reloads || s.Hits != 1 || s.Misses != 0 {
				t.Errorf("%d reloads, %d hits, %d misses, want %d, 1 and 0", s.Reloads, s.Hits, s.Misses, tc.reloads)
			}
		})
	}
}

// TestForAttrsCachedColdPrefixShared guards the prefix fallback: a cold
// cache walked over the sorted LHS groups {0,1,2}, {0,1,3}, {0,1,4}
// publishes π_{0,1} on the first walk, and the next two groups start
// from it as their cached co-atom. Publishing π_X alone would leave them
// no co-atom, and each would miss.
func TestForAttrsCachedColdPrefixShared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := make([][]int32, 5)
	cards := make([]int, 5)
	for a := range cols {
		cards[a] = 6
		cols[a] = randColumn(rng, 200, cards[a])
	}
	c := NewCache(1<<20, nil)
	for i, last := range []int{2, 3, 4} {
		x := bitset.FromAttrs(5, 0, 1, last)
		p, _, err := ForAttrsCached(context.Background(), c, x, cols, cards)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(ForAttrs(x, cols, cards)) {
			t.Fatalf("group %d: π_%v differs from ForAttrs", i, x.Attrs())
		}
		if i == 0 && c.Get(bitset.FromAttrs(5, 0, 1)) == nil {
			t.Fatal("the first walk did not publish π_{0,1}")
		}
	}
	// The probe of π_{0,1} above counts one hit of its own.
	if s := c.Stats(); s.Hits != 3 || s.Misses != 1 {
		t.Errorf("%d hits, %d misses, want 3 and 1 (two co-atom starts from π_{0,1})", s.Hits, s.Misses)
	}
}

// TestForAttrsCachedConcurrent builds overlapping attribute sets from
// four goroutines through one evicting cache, and through one that
// spills instead, so co-atom probes, prefix walks, evictions or spills
// and reloads, and publishes interleave; every π_X must still equal
// ForAttrs. Run it under -race.
func TestForAttrsCachedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ncols = 6
	cols := make([][]int32, ncols)
	cards := make([]int, ncols)
	for a := range cols {
		cards[a] = 4 + a
		cols[a] = randColumn(rng, 300, cards[a])
	}
	sets := make([]bitset.Set, 40)
	want := make([]*Partition, len(sets))
	for i := range sets {
		sets[i] = bitset.New(ncols)
		for a := range ncols {
			if rng.Intn(2) == 0 {
				sets[i].Add(a)
			}
		}
		want[i] = ForAttrs(sets[i], cols, cards)
	}
	for _, spill := range []bool{false, true} {
		c := NewCache(8<<10, nil)
		if spill {
			c = spillFixture(t, 8<<10, nil)
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range 3 * len(sets) {
					i := (k*(g+1) + g) % len(sets)
					p, _, err := ForAttrsCached(context.Background(), c, sets[i], cols, cards)
					if err != nil || !p.Equal(want[i]) {
						t.Errorf("spill=%v goroutine %d: π_%v differs from ForAttrs (err %v)", spill, g, sets[i].Attrs(), err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if s := c.Stats(); !spill && s.Evictions == 0 || spill && (s.Spills == 0 || s.Reloads == 0) {
			t.Errorf("spill=%v stats %+v: the bound never evicted, or spilled and reloaded", spill, s)
		}
	}
}

// TestOrderForRefine pins the start-attribute heuristic: the attribute
// whose single partition has the smallest error e(π_A) = nrows − card(A)
// comes first, i.e. largest cardinality first, ties broken by index.
func TestOrderForRefine(t *testing.T) {
	cards := []int{3, 9, 9, 1, 5}
	attrs := []int{0, 1, 2, 3, 4}
	orderForRefine(attrs, cards, 10)
	want := []int{1, 2, 4, 0, 3}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("order = %v, want %v", attrs, want)
		}
	}
}
