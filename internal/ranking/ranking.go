// Package ranking ranks discovered FDs by the data redundancy they cause
// (Section VI of the paper).
//
// A data value occurrence t(A) is redundant for an FD X → A when some
// other tuple t' agrees with t on X: the FD then pins t(A) to t'(A), so
// any change of t(A) alone violates the FD. The number of redundant
// occurrences an FD causes is ‖π_X‖ per RHS attribute — every tuple in a
// non-singleton cluster of the stripped partition. The paper proposes this
// count as a natural relevance measure: it is exactly the number of
// instances of the pattern "X-value determines A-value" present in the
// data, and the quantity schema normalization (BCNF/3NF) exists to remove.
//
// Missing values get three treatments, matching Tables IV and the
// qualitative analysis of Section VI-B:
//
//   - WithNulls   (#red+0): count every redundant occurrence.
//   - NoNullRHS   (#red):   skip occurrences whose value is a null marker.
//   - NoNulls     (#red-0): additionally require the witnessing pair to be
//     null-free on the LHS — clusters are re-formed over tuples whose LHS
//     values are all present, so a pattern "supported" only by nulls
//     counts nothing.
//
// The package is built around three kernels so that ranking a cover of
// thousands of FDs costs no more than the partition layer it sits on:
//
//   - π_X comes from partition.ForAttrsCached, through the shared
//     partition.Cache of the discovery run when one is supplied or a
//     private bounded cache otherwise: a miss refines from the LHS's
//     longest cached prefix, so related LHSs never rebuild from single
//     columns.
//   - Null counting is word-parallel: each partition's cluster rows are
//     marked once into a membership bitmap, and #red per RHS attribute is
//     one AndNot/popcount against the relation's packed null masks.
//   - The cover's FDs are grouped by LHS and the groups are fanned out
//     over engine.Pool workers with context cancellation and panic
//     recovery; Totals marks occurrences by word-Or of membership bitmaps
//     into per-column marks and popcounts per column.
package ranking

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Counts holds the three redundancy counts of one FD.
type Counts struct {
	// WithNulls is #red+0: all redundant occurrences.
	WithNulls int
	// NoNullRHS is #red: redundant occurrences whose own value is not null.
	NoNullRHS int
	// NoNulls is #red-0: occurrences counted only when the occurrence and
	// the LHS values of its cluster are all non-null.
	NoNulls int
}

// Ranked pairs an FD with its redundancy counts.
type Ranked struct {
	FD     dep.FD
	Counts Counts
}

// DefaultCacheBytes bounds the private PLI cache a ranking run creates
// when no shared cache is supplied, sized so that covers with thousands
// of related LHSs refine from cached parents instead of single columns.
const DefaultCacheBytes = 64 << 20

// Config tunes a ranking run. The zero value is the serial default with a
// private partition cache.
type Config struct {
	// Workers is the LHS-group fan-out width; values below 2 keep the
	// serial path (still with context checks and panic recovery).
	Workers int
	// Cache is a shared PLI cache, typically the one the discovery run
	// filled, so partitions computed during discovery are reused and
	// misses refine from the longest cached prefix. Nil gives the run a
	// private cache of DefaultCacheBytes.
	Cache *partition.Cache
}

func (cfg Config) cache() *partition.Cache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return partition.NewCache(DefaultCacheBytes, nil)
}

// Stats reports what one ranking run did: how partitions were obtained,
// how much row data the per-row fallback paths touched, and the traffic
// the run drove through its PLI cache.
type Stats struct {
	// FDs is the number of FDs scored; Groups the number of distinct LHSs
	// (each LHS builds its partition and membership bitmap once).
	FDs, Groups int
	// Workers is the pool width the run used (>= 1).
	Workers int
	// PartitionsBuilt counts LHS partitions built or refined from a cached
	// parent; PartitionsReused counts those served whole from the cache.
	PartitionsBuilt, PartitionsReused int64
	// RowsScanned counts cluster rows fed through the kernels: membership
	// marking plus the per-row null-LHS recluster fallback.
	RowsScanned int64
	// CacheHits / CacheMisses / CacheEvictions are the PLI cache's counter
	// movement during the run (a group refined from a cached prefix counts
	// as a hit, an empty LHS as neither).
	CacheHits, CacheMisses, CacheEvictions int64
	// Elapsed is the run's wall time.
	Elapsed time.Duration
}

// String renders a one-line human-readable summary, the form fdrank
// -stats prints to stderr.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranking: %d FDs over %d LHS groups in %v (workers=%d)\n",
		s.FDs, s.Groups, s.Elapsed.Round(time.Microsecond), s.Workers)
	fmt.Fprintf(&b, "  partitions: %d built, %d reused; %d rows scanned\n",
		s.PartitionsBuilt, s.PartitionsReused, s.RowsScanned)
	if s.CacheHits+s.CacheMisses+s.CacheEvictions > 0 {
		fmt.Fprintf(&b, "  pli-cache: %d hits, %d misses, %d evictions\n",
			s.CacheHits, s.CacheMisses, s.CacheEvictions)
	}
	return b.String()
}

// AddToRunStats folds the ranking run's counters into a discovery run
// report, so one RunStats can describe a discover→rank pipeline.
func (s Stats) AddToRunStats(rs *engine.RunStats) {
	if rs == nil {
		return
	}
	rs.RowsScanned += s.RowsScanned
	rs.PartitionsBuilt += s.PartitionsBuilt
	rs.CacheHits += s.CacheHits
	rs.CacheMisses += s.CacheMisses
	rs.CacheEvictions += s.CacheEvictions
	rs.Count("rank_fds", int64(s.FDs))
	rs.Count("rank_lhs_groups", int64(s.Groups))
	rs.Count("rank_partitions_reused", s.PartitionsReused)
}

// scratch is the per-worker reusable state of a ranking run.
type scratch struct {
	members bitset.Bitmap // membership bitmap of the current partition
	lhsNull bitset.Bitmap // union of the current LHS's null masks
	attrs   []int         // LHS attribute scratch

	built, reused, rows int64
}

// lhsNullBitmap fills sc.lhsNull with the union of the LHS attributes'
// null masks and reports whether any LHS column is incomplete.
//
//fd:hotpath
func (sc *scratch) lhsNullBitmap(r *relation.Relation, lhs bitset.Set) bool {
	any := false
	words := bitset.WordsFor(r.NumRows())
	if cap(sc.lhsNull) < words {
		sc.lhsNull = make(bitset.Bitmap, words)
	} else {
		sc.lhsNull = sc.lhsNull[:words]
		sc.lhsNull.Clear()
	}
	sc.attrs = lhs.AppendAttrs(sc.attrs[:0])
	for _, b := range sc.attrs {
		if nb := r.NullBitmap(b); nb != nil {
			sc.lhsNull.OrWith(nb)
			any = true
		}
	}
	return any
}

// countsFor computes one FD's counts from π_X and its membership bitmap.
// lhsHasNulls and sc.lhsNull must describe f's LHS (lhsNullBitmap).
//
//fd:hotpath
func countsFor(r *relation.Relation, f dep.FD, p *partition.Partition, sc *scratch, lhsHasNulls bool) Counts {
	var c Counts
	size := p.Size()
	for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
		c.WithNulls += size
		if nb := r.NullBitmap(a); nb == nil {
			c.NoNullRHS += size
		} else {
			c.NoNullRHS += sc.members.AndNotCount(nb)
		}
	}
	if !lhsHasNulls {
		// Clusters unchanged; only RHS nulls are excluded.
		c.NoNulls = c.NoNullRHS
		return c
	}
	// NoNulls: reform clusters over tuples with fully non-null LHSs. This
	// is the one per-row path left, taken only when the LHS itself is
	// incomplete; each row costs two bitmap tests.
	for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
		nb := r.NullBitmap(a)
		for _, cluster := range p.Clusters {
			survivors := 0
			nonNullA := 0
			for _, row := range cluster {
				if sc.lhsNull.Get(int(row)) {
					continue
				}
				survivors++
				if !nb.Get(int(row)) {
					nonNullA++
				}
			}
			if survivors >= 2 {
				c.NoNulls += nonNullA
			}
			sc.rows += int64(len(cluster))
		}
	}
	return c
}

// fanOut is the group fan-out shared by every entry point: the cover's
// FDs are grouped by LHS and partition.ForGroups takes each group's π_X
// on the pool's workers. Each group marks its membership bitmap into the
// worker's scratch and hands both to score. A walk fails only on
// cancellation; the group then stops and Run reports ctx.Err().
func fanOut(ctx context.Context, pool *engine.Pool, r *relation.Relation, fds []dep.FD, cache *partition.Cache, score func(w int, sc *scratch, g dep.Group, p *partition.Partition)) (Stats, error) {
	start := time.Now()
	cache0 := cache.Stats()
	groups := dep.GroupByLHS(fds)
	ws := make([]scratch, pool.Workers())
	err := partition.ForGroups(ctx, pool, cache, groups, r.Cols, r.Cards, func(w int, g dep.Group, p *partition.Partition, reused bool) {
		faults.Check(faults.RankingRun)
		sc := &ws[w]
		if reused {
			sc.reused++
		} else {
			sc.built++
		}
		sc.members = p.Members(sc.members)
		sc.rows += int64(p.Size())
		score(w, sc, g, p)
	})
	s := Stats{FDs: len(fds), Groups: len(groups), Workers: pool.Workers()}
	for i := range ws {
		s.PartitionsBuilt += ws[i].built
		s.PartitionsReused += ws[i].reused
		s.RowsScanned += ws[i].rows
	}
	delta := cache.Stats().Delta(cache0)
	s.CacheHits, s.CacheMisses, s.CacheEvictions = delta.Hits, delta.Misses, delta.Evictions
	s.Elapsed = time.Since(start)
	return s, err
}

// scoreGroups computes counts for every FD through the group fan-out. It
// is the shared core of RankCtx and ForColumnCtx.
func scoreGroups(ctx context.Context, r *relation.Relation, fds []dep.FD, cfg Config) ([]Counts, Stats, error) {
	out := make([]Counts, len(fds))
	stats, err := fanOut(ctx, engine.NewPool(cfg.Workers), r, fds, cfg.cache(), func(_ int, sc *scratch, g dep.Group, p *partition.Partition) {
		lhsHasNulls := sc.lhsNullBitmap(r, g.LHS)
		for _, i := range g.Idxs {
			out[i] = countsFor(r, fds[i], p, sc, lhsHasNulls)
		}
	})
	return out, stats, err
}

// Of computes the redundancy counts of one FD (set-valued RHS: counts sum
// over the RHS attributes), building π_X uncached. To score many FDs,
// rank them together: RankCtx shares partitions across LHSs.
func Of(r *relation.Relation, f dep.FD) Counts {
	var sc scratch
	p := partition.ForAttrs(f.LHS, r.Cols, r.Cards)
	sc.members = p.Members(nil)
	return countsFor(r, f, p, &sc, sc.lhsNullBitmap(r, f.LHS))
}

// sortRanked orders by descending WithNulls count (ties: smaller LHS
// first, then lexicographic; stable for identical LHSs).
func sortRanked(out []Ranked) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Counts.WithNulls != out[j].Counts.WithNulls {
			return out[i].Counts.WithNulls > out[j].Counts.WithNulls
		}
		ci, cj := out[i].FD.LHS.Count(), out[j].FD.LHS.Count()
		if ci != cj {
			return ci < cj
		}
		return bitset.CompareLex(out[i].FD.LHS, out[j].FD.LHS) < 0
	})
}

// RankCtx computes counts for every FD and returns them sorted by
// descending WithNulls count (ties: by the FD ordering of dep.Sort),
// fanning LHS groups out over cfg.Workers pool workers. On cancellation
// or an internal panic the partial, still-sorted result is returned
// alongside the error (engine.PanicError for panics).
func RankCtx(ctx context.Context, r *relation.Relation, fds []dep.FD, cfg Config) ([]Ranked, Stats, error) {
	counts, stats, err := scoreGroups(ctx, r, fds, cfg)
	out := make([]Ranked, len(fds))
	for i, f := range fds {
		out[i] = Ranked{FD: f, Counts: counts[i]}
	}
	sortRanked(out)
	return out, stats, err
}

// DatasetTotals holds the Table IV row for one data set.
type DatasetTotals struct {
	// Values is #values, the number of data occurrences (rows × columns).
	Values int
	// Red is #red: occurrences redundant for some FD of the cover, own
	// value non-null.
	Red int
	// RedWithNulls is #red+0: same, null occurrences included.
	RedWithNulls int
}

// PercentRed returns %red.
func (t DatasetTotals) PercentRed() float64 {
	if t.Values == 0 {
		return 0
	}
	return 100 * float64(t.Red) / float64(t.Values)
}

// PercentRedWithNulls returns %red+0.
func (t DatasetTotals) PercentRedWithNulls() float64 {
	if t.Values == 0 {
		return 0
	}
	return 100 * float64(t.RedWithNulls) / float64(t.Values)
}

// TotalsCtx computes the dataset-level redundancy of Table IV: occurrences
// are marked per FD of the cover and counted once, so overlapping FDs do
// not double-count. Because tuples that agree on an FD's LHS agree on its
// closure, marking along any cover of the valid FDs marks exactly the
// occurrences redundant with respect to the full FD set.
//
// Marking is word-parallel: each LHS group Ors its membership bitmap into
// the marked bitmap of every RHS column, and the totals are popcounts per
// column against the packed null masks. Groups fan out over cfg.Workers
// with per-worker mark sets merged by word-Or.
func TotalsCtx(ctx context.Context, r *relation.Relation, fds []dep.FD, cfg Config) (DatasetTotals, Stats, error) {
	rows, cols := r.NumRows(), r.NumCols()
	pool := engine.NewPool(cfg.Workers)
	marked := make([][]bitset.Bitmap, pool.Workers()) // [worker][col]
	for w := range marked {
		marked[w] = make([]bitset.Bitmap, cols)
	}
	stats, err := fanOut(ctx, pool, r, fds, cfg.cache(), func(w int, sc *scratch, g dep.Group, _ *partition.Partition) {
		for _, i := range g.Idxs {
			f := fds[i]
			for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
				if marked[w][a] == nil {
					marked[w][a] = bitset.NewBitmap(rows)
				}
				marked[w][a].OrWith(sc.members)
			}
		}
	})
	// Merge the per-worker marks and popcount per column.
	var t DatasetTotals
	t.Values = rows * cols
	for a := 0; a < cols; a++ {
		var m bitset.Bitmap
		for w := range marked {
			if marked[w][a] == nil {
				continue
			}
			if m == nil {
				m = marked[w][a]
			} else {
				m.OrWith(marked[w][a])
			}
		}
		if m == nil {
			continue
		}
		t.RedWithNulls += m.Count()
		t.Red += m.AndNotCount(r.NullBitmap(a))
	}
	return t, stats, err
}

// HistogramThresholds are the x-values of Figure 10 as fractions of the
// maximum per-FD redundancy: 0, 2.5 %, 5 %, …, 100 %.
var HistogramThresholds = []float64{0, 0.025, 0.05, 0.10, 0.15, 0.20, 0.40, 0.60, 0.80, 1.0}

// Bucket is one bar of Figure 10: the number of FDs whose redundancy lies
// in (Prev, Max] (the first bucket is exactly zero).
type Bucket struct {
	Max  int // inclusive upper bound in redundant occurrences
	FDs  int
	Frac float64 // threshold fraction this bucket corresponds to
}

// Histogram buckets per-FD redundancy counts at the paper's thresholds.
// counts may be in any order: each count is placed directly into the first
// bucket whose limit covers it — a single pass with a binary search over
// the ten limits, instead of rescanning every count per bucket. Because
// the limits are non-decreasing, "first bucket with limit ≥ c" is exactly
// the (prev, limit] assignment of the definitional sweep (a bucket whose
// limit repeats an earlier one stays empty).
func Histogram(counts []int) []Bucket {
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	buckets := make([]Bucket, len(HistogramThresholds))
	limits := make([]int, len(HistogramThresholds))
	for i, frac := range HistogramThresholds {
		limits[i] = int(frac * float64(maxCount))
		if i == len(HistogramThresholds)-1 {
			limits[i] = maxCount
		}
		buckets[i] = Bucket{Max: limits[i], Frac: frac}
	}
	for _, c := range counts {
		buckets[sort.SearchInts(limits, c)].FDs++
	}
	return buckets
}

// ColumnView is one row of the Section VI-B table: a minimal LHS
// determining the fixed column, with its #red and #red-0 counts for that
// column only.
type ColumnView struct {
	LHS     bitset.Set
	Red     int // #red: occurrences of the column, value non-null
	RedNoNN int // #red-0: null-free LHS and RHS
}

// ForColumnCtx lists the minimal LHSs in the cover that determine column
// col, with per-column redundancy counts, sorted by descending Red. The
// scoring fans out like RankCtx.
func ForColumnCtx(ctx context.Context, r *relation.Relation, fds []dep.FD, col int, cfg Config) ([]ColumnView, Stats, error) {
	rhs := bitset.New(r.NumCols())
	rhs.Add(col)
	var sub []dep.FD
	for _, f := range fds {
		if f.RHS.Contains(col) {
			sub = append(sub, dep.FD{LHS: f.LHS, RHS: rhs})
		}
	}
	counts, stats, err := scoreGroups(ctx, r, sub, cfg)
	out := make([]ColumnView, len(sub))
	for i, f := range sub {
		out[i] = ColumnView{LHS: f.LHS, Red: counts[i].NoNullRHS, RedNoNN: counts[i].NoNulls}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Red != out[j].Red {
			return out[i].Red > out[j].Red
		}
		return bitset.CompareLex(out[i].LHS, out[j].LHS) < 0
	})
	return out, stats, err
}
