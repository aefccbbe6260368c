package dhyfd

import (
	"context"

	"repro/internal/ranking"
)

// RedundancyCounts holds the three per-FD redundancy counts: #red+0
// (WithNulls), #red (NoNullRHS) and #red-0 (NoNulls).
type RedundancyCounts = ranking.Counts

// RankedFD pairs an FD with its redundancy counts.
type RankedFD = ranking.Ranked

// RankStats reports what one ranking run did: FDs and distinct LHS groups
// scored, partitions built versus reused from the cache, rows scanned, the
// PLI cache's counter movement and the wall time.
type RankStats = ranking.Stats

// rankingConfig projects the shared Option set onto a ranking run's
// tuning. Ranking honours WithWorkers and WithCache; the discovery-only
// options are accepted and ignored, so one option slice can drive a whole
// discover→rank pipeline.
func rankingConfig(opts []Option) (ranking.Config, error) {
	var c discoverConfig
	for _, o := range opts {
		o(&c)
	}
	cfg := ranking.Config{Workers: c.workers}
	if c.cache != nil {
		cfg.Cache = c.cache.c
	}
	return cfg, c.optErr
}

// Rank computes the redundancy counts of every FD on r and returns them
// sorted by descending relevance (Section VI of the paper). Highly ranked
// FDs dominate the data; FDs whose redundancy is carried mostly by null
// markers (WithNulls >> NoNulls) are likely accidental.
//
// Rank takes the same options as Discover and honours WithWorkers and
// WithCache — pass the cache a WithCache discovery filled and ranking
// reuses the partitions discovery built. The context cancels the run
// cooperatively: on cancellation (or an internal panic, surfaced as a
// *PanicError) the partial, still-sorted result is returned alongside the
// error. To rank during discovery instead, see WithTopK.
func Rank(ctx context.Context, r *Relation, fds []FD, opts ...Option) ([]RankedFD, RankStats, error) {
	cfg, err := rankingConfig(opts)
	if err != nil {
		return nil, RankStats{}, err
	}
	return ranking.RankCtx(ctx, r, fds, cfg)
}

// RedundancyOf computes the counts of a single FD.
func RedundancyOf(r *Relation, f FD) RedundancyCounts {
	return ranking.New(r).FD(f)
}

// DatasetRedundancy is the Table IV summary of one data set.
type DatasetRedundancy = ranking.DatasetTotals

// TotalRedundancy computes dataset-level redundancy: the number of data
// value occurrences fixed in place by the given cover, counted once each.
// It takes the same options as Rank.
func TotalRedundancy(ctx context.Context, r *Relation, fds []FD, opts ...Option) (DatasetRedundancy, RankStats, error) {
	cfg, err := rankingConfig(opts)
	if err != nil {
		return DatasetRedundancy{}, RankStats{}, err
	}
	return ranking.TotalsCtx(ctx, r, fds, cfg)
}

// RedundancyBucket is one bar of the Figure 10 histogram.
type RedundancyBucket = ranking.Bucket

// RedundancyHistogram buckets per-FD redundancy counts at the paper's
// percentile thresholds (0, 2.5 %, 5 %, …, 100 % of the maximum).
func RedundancyHistogram(ranked []RankedFD) []RedundancyBucket {
	counts := make([]int, len(ranked))
	for i, r := range ranked {
		counts[i] = r.Counts.WithNulls
	}
	return ranking.Histogram(counts)
}

// ColumnLHSView is one row of the per-column analysis of Section VI-B.
type ColumnLHSView = ranking.ColumnView

// RankForColumn lists the minimal LHSs in the cover determining the given
// column, each with the redundancy it causes in that column alone. It
// takes the same options as Rank.
func RankForColumn(ctx context.Context, r *Relation, fds []FD, col int, opts ...Option) ([]ColumnLHSView, RankStats, error) {
	cfg, err := rankingConfig(opts)
	if err != nil {
		return nil, RankStats{}, err
	}
	return ranking.ForColumnCtx(ctx, r, fds, col, cfg)
}
