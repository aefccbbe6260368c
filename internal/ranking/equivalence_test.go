package ranking

// The equivalence matrix: the rewritten kernels — packed-bitmap counting,
// shared/private PLI caches, parallel LHS-group fan-out — must produce
// byte-identical Counts, Totals, Histogram and ForColumn output to the
// seed's per-row reference implementation, on every benchmark relation,
// with and without nulls, under every configuration. The reference code
// below is the pre-rewrite implementation, kept verbatim (modulo naming)
// as the oracle.

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/partition"
	"repro/internal/relation"
)

// --- seed reference implementation (per-row null loops, map cache) ---

type seedRanker struct {
	r     *relation.Relation
	cache map[string]*partition.Partition
}

func newSeedRanker(r *relation.Relation) *seedRanker {
	return &seedRanker{r: r, cache: make(map[string]*partition.Partition)}
}

func (rk *seedRanker) partitionFor(lhs bitset.Set) *partition.Partition {
	k := lhs.Key()
	if p, ok := rk.cache[k]; ok {
		return p
	}
	p := partition.ForAttrs(lhs, rk.r.Cols, rk.r.Cards)
	rk.cache[k] = p
	return p
}

func (rk *seedRanker) fd(f dep.FD) Counts {
	var c Counts
	p := rk.partitionFor(f.LHS)
	lhsAttrs := f.LHS.Attrs()
	for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
		mask := rk.r.Nulls[a]
		for _, cluster := range p.Clusters {
			c.WithNulls += len(cluster)
			if mask == nil {
				c.NoNullRHS += len(cluster)
			} else {
				for _, row := range cluster {
					if !mask[row] {
						c.NoNullRHS++
					}
				}
			}
		}
	}
	anyLHSNulls := false
	for _, b := range lhsAttrs {
		if rk.r.Nulls[b] != nil {
			anyLHSNulls = true
			break
		}
	}
	if !anyLHSNulls {
		c.NoNulls = c.NoNullRHS
		return c
	}
	for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
		mask := rk.r.Nulls[a]
		for _, cluster := range p.Clusters {
			survivors := 0
			nonNullA := 0
			for _, row := range cluster {
				if seedRowHasNullLHS(rk.r, lhsAttrs, row) {
					continue
				}
				survivors++
				if mask == nil || !mask[row] {
					nonNullA++
				}
			}
			if survivors >= 2 {
				c.NoNulls += nonNullA
			}
		}
	}
	return c
}

func seedRowHasNullLHS(r *relation.Relation, lhsAttrs []int, row int32) bool {
	for _, b := range lhsAttrs {
		if m := r.Nulls[b]; m != nil && m[row] {
			return true
		}
	}
	return false
}

func seedRank(r *relation.Relation, fds []dep.FD) []Ranked {
	rk := newSeedRanker(r)
	out := make([]Ranked, len(fds))
	for i, f := range fds {
		out[i] = Ranked{FD: f, Counts: rk.fd(f)}
	}
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
	return out
}

func seedTotals(r *relation.Relation, fds []dep.FD) DatasetTotals {
	rows, cols := r.NumRows(), r.NumCols()
	marked := make([]bool, rows*cols)
	rk := newSeedRanker(r)
	for _, f := range fds {
		p := rk.partitionFor(f.LHS)
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			base := a * rows
			for _, cluster := range p.Clusters {
				for _, row := range cluster {
					marked[base+int(row)] = true
				}
			}
		}
	}
	var t DatasetTotals
	t.Values = rows * cols
	for a := 0; a < cols; a++ {
		mask := r.Nulls[a]
		base := a * rows
		for row := 0; row < rows; row++ {
			if !marked[base+row] {
				continue
			}
			t.RedWithNulls++
			if mask == nil || !mask[row] {
				t.Red++
			}
		}
	}
	return t
}

func seedHistogram(counts []int) []Bucket {
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	buckets := make([]Bucket, len(HistogramThresholds))
	prev := -1
	for i, frac := range HistogramThresholds {
		limit := int(frac * float64(maxCount))
		if i == len(HistogramThresholds)-1 {
			limit = maxCount
		}
		n := 0
		for _, c := range counts {
			if c > prev && c <= limit {
				n++
			}
		}
		buckets[i] = Bucket{Max: limit, FDs: n, Frac: frac}
		prev = limit
	}
	return buckets
}

func seedForColumn(r *relation.Relation, fds []dep.FD, col int) []ColumnView {
	rk := newSeedRanker(r)
	var out []ColumnView
	rhs := bitset.New(r.NumCols())
	rhs.Add(col)
	for _, f := range fds {
		if !f.RHS.Contains(col) {
			continue
		}
		c := rk.fd(dep.FD{LHS: f.LHS, RHS: rhs})
		out = append(out, ColumnView{LHS: f.LHS, Red: c.NoNullRHS, RedNoNN: c.NoNulls})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Red != out[j].Red {
			return out[i].Red > out[j].Red
		}
		return bitset.CompareLex(out[i].LHS, out[j].LHS) < 0
	})
	return out
}

// --- the matrix ---

// equivConfigs are the kernel configurations that must match the seed:
// serial/parallel × private/shared-prefilled cache.
func equivConfigs(t *testing.T) map[string]func() Config {
	return map[string]func() Config{
		"serial":        func() Config { return Config{} },
		"serial-shared": func() Config { return Config{Cache: partition.NewCache(16<<20, nil)} },
		"workers4":      func() Config { return Config{Workers: 4} },
		"workers4-shared": func() Config {
			return Config{Workers: 4, Cache: partition.NewCache(16<<20, nil)}
		},
	}
}

func equivRelations(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	rels := make(map[string]*relation.Relation)
	for _, b := range dataset.All() {
		rows := b.DefaultRows
		if rows > 150 {
			rows = 150
		}
		cols := b.DefaultCols
		if cols > 12 {
			cols = 12
		}
		rels[b.Name] = b.Generate(rows, cols)
	}
	return rels
}

func TestEquivalenceMatrix(t *testing.T) {
	for name, r := range equivRelations(t) {
		r := r
		t.Run(name, func(t *testing.T) {
			can := cover.Canonical(r.NumCols(), discover(r))
			if len(can) == 0 {
				t.Skip("empty cover")
			}
			wantRank := seedRank(r, can)
			wantTot := seedTotals(r, can)
			counts := make([]int, len(wantRank))
			for i, rr := range wantRank {
				counts[i] = rr.Counts.WithNulls
			}
			wantHist := seedHistogram(counts)
			wantCols := make(map[int][]ColumnView)
			for col := 0; col < r.NumCols(); col++ {
				wantCols[col] = seedForColumn(r, can, col)
			}

			for cfgName, mk := range equivConfigs(t) {
				cfg := mk()
				// Run every entry point twice on the same cache so both
				// the build and the exact-reuse paths are exercised.
				for pass := 0; pass < 2; pass++ {
					got, stats, err := RankCtx(context.Background(), r, can, cfg)
					if err != nil {
						t.Fatalf("%s pass %d: RankCtx: %v", cfgName, pass, err)
					}
					if !reflect.DeepEqual(got, wantRank) {
						t.Fatalf("%s pass %d: RankCtx diverges from seed", cfgName, pass)
					}
					if cfg.Cache != nil && pass == 1 && stats.PartitionsReused == 0 {
						t.Errorf("%s pass %d: shared cache reports no partition reuse", cfgName, pass)
					}
					tot, _, err := TotalsCtx(context.Background(), r, can, cfg)
					if err != nil {
						t.Fatalf("%s pass %d: TotalsCtx: %v", cfgName, pass, err)
					}
					if tot != wantTot {
						t.Fatalf("%s pass %d: Totals = %+v, seed %+v", cfgName, pass, tot, wantTot)
					}
					gotCounts := make([]int, len(got))
					for i, rr := range got {
						gotCounts[i] = rr.Counts.WithNulls
					}
					if hist := Histogram(gotCounts); !reflect.DeepEqual(hist, wantHist) {
						t.Fatalf("%s pass %d: Histogram diverges from seed", cfgName, pass)
					}
					for col := 0; col < r.NumCols(); col++ {
						views, _, err := ForColumnCtx(context.Background(), r, can, col, cfg)
						if err != nil {
							t.Fatalf("%s pass %d col %d: %v", cfgName, pass, col, err)
						}
						want := wantCols[col]
						if len(views) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(views, want) {
							t.Fatalf("%s pass %d: ForColumn(%d) diverges from seed", cfgName, pass, col)
						}
					}
				}
			}

			// The serial Ranker must agree FD-by-FD too.
			rk := New(r)
			sk := newSeedRanker(r)
			for _, f := range can {
				if got, want := rk.FD(f), sk.fd(f); got != want {
					t.Fatalf("Ranker.FD(%v) = %+v, seed %+v", f, got, want)
				}
			}
		})
	}
}

func TestHistogramGolden(t *testing.T) {
	cases := [][]int{
		nil,
		{},
		{0},
		{0, 0, 0},
		{1},
		{100},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{5, 5, 5, 5},
		{0, 1, 0, 39, 40, 41, 1000, 999, 2, 2},
	}
	// A larger pseudorandom case.
	big := make([]int, 5000)
	for i := range big {
		big[i] = (i * 7919) % 15013
	}
	cases = append(cases, big)
	for ci, counts := range cases {
		got := Histogram(counts)
		want := seedHistogram(counts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: Histogram = %v, seed %v", ci, got, want)
		}
	}
}
