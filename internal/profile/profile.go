// Package profile assembles a data-profiling report: per-column statistics,
// unique column combinations (minimal keys of the data), the canonical FD
// cover and its redundancy ranking — the profiling workflow the paper's
// introduction frames FD discovery inside of.
package profile

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/normalize"
	"repro/internal/partition"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// ValueCount is one entry of a column's most-frequent-values list.
type ValueCount struct {
	Value string
	Count int
}

// ColumnProfile summarizes one column.
type ColumnProfile struct {
	Name         string
	Distinct     int // active-domain size
	Nulls        int
	IsConstant   bool
	IsUnique     bool // no duplicated value: a single-column key
	TopValues    []ValueCount
	InFDsAsLHS   int // appearances in canonical-cover LHSs
	InFDsAsRHS   int // appearances in canonical-cover RHSs
	RedundantOcc int // redundant occurrences of this column under the cover
}

// Report is the complete profiling result.
type Report struct {
	Rows, Cols int
	Missing    int // total null occurrences

	Columns []ColumnProfile

	// Keys are the minimal unique column combinations of the data.
	Keys []bitset.Set
	// KeysTruncated reports whether the key enumeration hit its bound.
	KeysTruncated bool

	// Cover statistics.
	LeftReducedFDs int
	CanonicalFDs   int
	Ranked         []ranking.Ranked
	Totals         ranking.DatasetTotals

	DiscoveryTime time.Duration
	TotalTime     time.Duration

	// Run is the discovery run report: per-phase wall time and hot-path
	// counters (partial, with Cancelled set, when the profile was
	// interrupted).
	Run *engine.RunStats
}

// Options bound the potentially expensive parts of a profile.
type Options struct {
	// MaxKeys bounds unique-column-combination enumeration (default 64).
	MaxKeys int
	// TopValues is the number of frequent values kept per column
	// (default 3; requires the relation to retain dictionaries).
	TopValues int
	// Workers parallelizes discovery (default serial).
	Workers int
	// CacheBytes bounds a shared PLI cache routed through discovery
	// (0 = disabled).
	CacheBytes int64
}

func (o *Options) fillDefaults() {
	if o.MaxKeys <= 0 {
		o.MaxKeys = 64
	}
	if o.TopValues <= 0 {
		o.TopValues = 3
	}
}

// ProfileCtx computes the full report for a relation with cooperative
// cancellation: discovery — the dominant cost — aborts promptly once ctx
// is done, returning the partial report alongside ctx's error.
func ProfileCtx(ctx context.Context, r *relation.Relation, opts Options) (*Report, error) {
	opts.fillDefaults()
	start := time.Now()
	n := r.NumCols()

	rep := &Report{Rows: r.NumRows(), Cols: n}
	_, _, rep.Missing = r.IncompleteStats()

	// Discovery, cover, ranking.
	dstart := time.Now()
	cache := partition.NewCache(opts.CacheBytes, nil)
	lr, rs, err := core.Run(ctx, r, core.Config{Options: runstate.Options{Workers: opts.Workers, Cache: cache}})
	rep.DiscoveryTime = time.Since(dstart)
	rep.Run = rs
	if err != nil {
		rep.TotalTime = time.Since(start)
		return rep, err
	}
	can := cover.Canonical(n, lr)
	rep.LeftReducedFDs = len(lr)
	rep.CanonicalFDs = len(can)
	// Ranking shares the discovery run's PLI cache and worker width, and
	// its counters fold into the run report.
	rcfg := ranking.Config{Workers: opts.Workers, Cache: cache}
	var rkStats ranking.Stats
	rep.Ranked, rkStats, err = ranking.RankCtx(ctx, r, can, rcfg)
	if err == nil {
		var totStats ranking.Stats
		rep.Totals, totStats, err = ranking.TotalsCtx(ctx, r, can, rcfg)
		rkStats.PartitionsBuilt += totStats.PartitionsBuilt
		rkStats.PartitionsReused += totStats.PartitionsReused
		rkStats.RowsScanned += totStats.RowsScanned
		rkStats.CacheHits += totStats.CacheHits
		rkStats.CacheMisses += totStats.CacheMisses
		rkStats.CacheEvictions += totStats.CacheEvictions
	}
	rkStats.AddToRunStats(rep.Run)
	if err != nil {
		rep.TotalTime = time.Since(start)
		return rep, err
	}

	// Minimal keys of the data = candidate keys of the valid-FD cover.
	rep.Keys = normalize.CandidateKeys(n, can, opts.MaxKeys)
	rep.KeysTruncated = len(rep.Keys) >= opts.MaxKeys

	// Per-column statistics.
	perColRedundancy := make([]int, n)
	rk := ranking.NewWith(r, ranking.Config{Cache: cache})
	for _, f := range can {
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			rhs := bitset.New(n)
			rhs.Add(a)
			perColRedundancy[a] += rk.FD(dep.FD{LHS: f.LHS, RHS: rhs}).WithNulls
		}
	}
	rep.Columns = make([]ColumnProfile, n)
	for c := 0; c < n; c++ {
		col := ColumnProfile{
			Name:         r.Names[c],
			Distinct:     r.Cards[c],
			IsConstant:   r.Cards[c] <= 1,
			TopValues:    topValues(r, c, opts.TopValues),
			RedundantOcc: perColRedundancy[c],
		}
		if mask := r.Nulls[c]; mask != nil {
			for _, isNull := range mask {
				if isNull {
					col.Nulls++
				}
			}
		}
		col.IsUnique = uniqueColumn(r, c)
		for _, f := range can {
			if f.LHS.Contains(c) {
				col.InFDsAsLHS++
			}
			if f.RHS.Contains(c) {
				col.InFDsAsRHS++
			}
		}
		rep.Columns[c] = col
	}
	rep.TotalTime = time.Since(start)
	return rep, nil
}

func uniqueColumn(r *relation.Relation, c int) bool {
	seen := make(map[int32]bool, r.NumRows())
	for _, v := range r.Cols[c] {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func topValues(r *relation.Relation, c, k int) []ValueCount {
	counts := make(map[int32]int)
	for _, v := range r.Cols[c] {
		counts[v]++
	}
	codes := make([]int32, 0, len(counts))
	for v := range counts {
		codes = append(codes, v)
	}
	sort.Slice(codes, func(i, j int) bool {
		if counts[codes[i]] != counts[codes[j]] {
			return counts[codes[i]] > counts[codes[j]]
		}
		return codes[i] < codes[j]
	})
	if len(codes) > k {
		codes = codes[:k]
	}
	out := make([]ValueCount, len(codes))
	for i, v := range codes {
		label := fmt.Sprintf("#%d", v)
		if r.Dicts != nil && r.Dicts[c] != nil && int(v) < len(r.Dicts[c]) {
			label = r.Dicts[c][v]
		}
		out[i] = ValueCount{Value: label, Count: counts[v]}
	}
	return out
}

// Write renders the report as a human-readable profiling summary.
func (rep *Report) Write(w io.Writer, names []string) {
	fmt.Fprintf(w, "rows: %d   columns: %d   missing values: %d\n",
		rep.Rows, rep.Cols, rep.Missing)
	fmt.Fprintf(w, "FDs: %d left-reduced, %d canonical   discovery: %v   total: %v\n",
		rep.LeftReducedFDs, rep.CanonicalFDs,
		rep.DiscoveryTime.Round(time.Millisecond), rep.TotalTime.Round(time.Millisecond))
	fmt.Fprintf(w, "redundancy: %d of %d values (%.1f%%), %d incl. nulls (%.1f%%)\n",
		rep.Totals.Red, rep.Totals.Values, rep.Totals.PercentRed(),
		rep.Totals.RedWithNulls, rep.Totals.PercentRedWithNulls())
	if rep.Run != nil {
		fmt.Fprintf(w, "discovery phases (%s, %d workers):", rep.Run.Algorithm, rep.Run.Workers)
		for _, ph := range rep.Run.Phases {
			fmt.Fprintf(w, " %s=%v", ph.Name, ph.Duration.Round(time.Millisecond))
		}
		fmt.Fprintf(w, "; %d candidates validated, %d rows scanned, %d partitions refined\n",
			rep.Run.CandidatesValidated, rep.Run.RowsScanned, rep.Run.PartitionsRefined)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "columns:")
	fmt.Fprintf(w, "  %-20s %9s %7s %5s %7s %7s %9s  %s\n",
		"name", "distinct", "nulls", "key?", "in LHS", "in RHS", "redundant", "top values")
	for _, col := range rep.Columns {
		key := ""
		if col.IsUnique {
			key = "KEY"
		} else if col.IsConstant {
			key = "CONST"
		}
		tops := ""
		for i, tv := range col.TopValues {
			if i > 0 {
				tops += ", "
			}
			tops += fmt.Sprintf("%s×%d", tv.Value, tv.Count)
		}
		fmt.Fprintf(w, "  %-20s %9d %7d %5s %7d %7d %9d  %s\n",
			col.Name, col.Distinct, col.Nulls, key, col.InFDsAsLHS, col.InFDsAsRHS,
			col.RedundantOcc, tops)
	}

	fmt.Fprintf(w, "\nminimal keys (%d", len(rep.Keys))
	if rep.KeysTruncated {
		fmt.Fprint(w, ", truncated")
	}
	fmt.Fprintln(w, "):")
	for i, k := range rep.Keys {
		if i == 10 {
			fmt.Fprintf(w, "  … %d more\n", len(rep.Keys)-i)
			break
		}
		fmt.Fprintf(w, "  (%s)\n", k.Names(names))
	}

	fmt.Fprintln(w, "\ntop FDs by redundancy (#red+0 / #red / #red-0):")
	for i, rk := range rep.Ranked {
		if i == 10 {
			fmt.Fprintf(w, "  … %d more\n", len(rep.Ranked)-i)
			break
		}
		fmt.Fprintf(w, "  %6d / %6d / %6d   %s\n",
			rk.Counts.WithNulls, rk.Counts.NoNullRHS, rk.Counts.NoNulls, rk.FD.Format(names))
	}
}
