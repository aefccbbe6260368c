package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	dhyfd "repro"
	"repro/internal/dataset"
)

// workload is one closed-loop scenario: a dataset shape whose generated
// relations are written as CSV files, and the job that turns one file into
// a cover or a ranked list.
type workload struct {
	name    string
	dataset string
	rows    int
	cols    int
	job     func(ctx context.Context, e *jobEnv) (output, error)
	// check is the workload's own output check beyond the common ones; rel
	// is a fresh resident ingest of the same CSV.
	check func(ctx context.Context, rel *dhyfd.Relation, out output) error
	// pinSHA and pinCount pin the seed-0 outputs (see checkPin).
	pinSHA   string
	pinCount int
}

var workloads = []workload{
	{
		name: "wide-induct", dataset: "diabetic", rows: 3000, cols: 19,
		job: func(ctx context.Context, e *jobEnv) (output, error) {
			return e.discoverJob(ctx, dhyfd.Options{}, true, dhyfd.WithAlgorithm(dhyfd.DHyFD))
		},
		check: func(_ context.Context, rel *dhyfd.Relation, out output) error {
			if !dhyfd.EquivalentCovers(rel.NumCols(), out.cover, out.base) {
				return fmt.Errorf("canonical cover is not equivalent to the left-reduced cover")
			}
			return nil
		},
		pinSHA:   "62ca7ff9189aaf8455d28dc13828ed092c74d586141d4a6ffa159db1734b194e",
		pinCount: 19235,
	},
	{
		name: "tall-pli", dataset: "weather", rows: 16000, cols: 18,
		job: func(ctx context.Context, e *jobEnv) (output, error) {
			return e.discoverJob(ctx, dhyfd.Options{}, false, dhyfd.WithAlgorithm(dhyfd.DHyFD))
		},
		pinSHA:   "604f287744ba52a69dc04682c0aa35bb49fcaf8fe98c7e5687f77a58739df5e6",
		pinCount: 37945,
	},
	{
		name: "rank-lattice", dataset: "flight", rows: 500, cols: 17,
		job: rankLatticeJob,
		check: func(ctx context.Context, rel *dhyfd.Relation, out output) error {
			ranked, _, err := dhyfd.Rank(ctx, rel, out.cover, dhyfd.WithWorkers(1))
			if err != nil {
				return fmt.Errorf("uncached rank: %w", err)
			}
			if formatRanked(ranked, rel.Names) != out.text() {
				return fmt.Errorf("cached ranking differs from an uncached Rank of the same cover")
			}
			return nil
		},
		pinSHA:   "189e0af15f25348dd55c69a4119f7fe8c8f11b93ef215d973e2e11460e8bff65",
		pinCount: 16647,
	},
	{
		// The cache has no spill tier: on a shared host the spill files'
		// create, map and unlink calls swing a job's time by 2×, which no
		// bound could hold. Evicted partitions are rebuilt instead.
		name: "ooc-walk", dataset: "ncvoter", rows: 10000, cols: 10,
		job: func(ctx context.Context, e *jobEnv) (output, error) {
			return e.discoverJob(ctx, dhyfd.Options{PageColumns: true, PageDir: e.dir}, false,
				dhyfd.WithAlgorithm(dhyfd.DFD), dhyfd.WithPartitionCache(1<<20))
		},
		pinSHA:   "885b3bc695ca143c00b4c81c2e296113de7b07bddbc1653037c84ecc23af00f5",
		pinCount: 1370,
	},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// specs returns the generator specs of the workload's n inputs at the
// given seed: input i shifts every seed of the dataset shape by seed·n + i,
// so seed 0 starts from the shape's own seed and no two seeds share an
// input. Smoke runs shrink the rows twentyfold.
func (w workload) specs(seed int64, n int, smoke bool) ([]dataset.Spec, error) {
	bm, err := dataset.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	rows := w.rows
	if smoke {
		rows = max(rows/20, 50)
	}
	out := make([]dataset.Spec, n)
	for i := range out {
		out[i] = bm.Spec(rows, w.cols)
		out[i].Seed += seed*int64(n) + int64(i)
	}
	return out, nil
}

// output is what one job leaves in memory.
type output struct {
	names  []string
	base   []dhyfd.FD // Discover's left-reduced cover
	cover  []dhyfd.FD // the cover the job returns (canonical where it canonicalizes)
	ranked []dhyfd.RankedFD
	isRank bool
	stats  dhyfd.RunStats
	rank   dhyfd.RankStats
}

// text serializes the output; its SHA-256 identifies the output.
func (o output) text() string {
	if o.isRank {
		return formatRanked(o.ranked, o.names)
	}
	return dhyfd.FormatFDs(o.cover, o.names)
}

// size is the number of FDs (or ranked entries) in the output.
func (o output) size() int {
	if o.isRank {
		return len(o.ranked)
	}
	return len(o.cover)
}

func (o output) sha() string {
	sum := sha256.Sum256([]byte(o.text()))
	return hex.EncodeToString(sum[:])
}

func formatRanked(ranked []dhyfd.RankedFD, names []string) string {
	var b strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&b, "%d %d %d %s\n", r.Counts.WithNulls, r.Counts.NoNullRHS, r.Counts.NoNulls, r.FD.Format(names))
	}
	return b.String()
}

// jobEnv is what a job runs against: the CSV file, a scratch directory for
// column pages, and the tracer of a traced job (nil otherwise).
type jobEnv struct {
	csv  string
	dir  string
	tr   *tracer
	job  int
	root int // the job span's id
}

// ingest reads the CSV file inside a relation.ingest span.
func (e *jobEnv) ingest(opts dhyfd.Options) (*dhyfd.Relation, error) {
	id := e.tr.start(e.job, e.root, "relation.ingest")
	rel, err := dhyfd.ReadCSVFile(e.csv, opts)
	e.tr.end(id)
	return rel, err
}

// driverLayer names the module behind each driver's phases.
var driverLayer = map[string]string{"dhyfd": "core", "tane": "tane", "dfd": "dfd"}

// discover runs Discover serially inside a discover span and attaches the
// driver's phase times as duration-only children. A degraded run is an
// error: the workloads are sized so that no budget trips.
func (e *jobEnv) discover(ctx context.Context, rel *dhyfd.Relation, opts ...dhyfd.Option) (*dhyfd.Result, error) {
	id := e.tr.start(e.job, e.root, "discover")
	res, err := dhyfd.Discover(ctx, rel, append(opts, dhyfd.WithWorkers(1))...)
	e.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	layer := driverLayer[res.Stats.Algorithm]
	if layer == "" {
		layer = res.Stats.Algorithm
	}
	for _, p := range res.Stats.Phases {
		e.tr.phase(e.job, id, layer+"."+p.Name, p.Duration)
	}
	if res.Stats.Degraded {
		return nil, fmt.Errorf("discover degraded: %s", res.Stats.DegradedReason)
	}
	return res, nil
}

func (e *jobEnv) canonical(numAttrs int, fds []dhyfd.FD) []dhyfd.FD {
	id := e.tr.start(e.job, e.root, "cover.canonical")
	can := dhyfd.CanonicalCover(numAttrs, fds)
	e.tr.end(id)
	return can
}

// discoverJob is ingest → Discover, optionally → CanonicalCover.
func (e *jobEnv) discoverJob(ctx context.Context, opts dhyfd.Options, canonical bool, dopts ...dhyfd.Option) (output, error) {
	rel, err := e.ingest(opts)
	if err != nil {
		return output{}, err
	}
	defer rel.Close()
	res, err := e.discover(ctx, rel, dopts...)
	if err != nil {
		return output{}, err
	}
	out := output{names: rel.Names, base: res.FDs, cover: res.FDs, stats: res.Stats}
	if canonical {
		out.cover = e.canonical(rel.NumCols(), res.FDs)
	}
	return out, nil
}

// rankLatticeJob is the fdrank -pli-cache pipeline: TANE fills a
// caller-owned cache, the cover is canonicalized, and Rank reads the
// partitions back from the same cache.
func rankLatticeJob(ctx context.Context, e *jobEnv) (output, error) {
	rel, err := e.ingest(dhyfd.Options{})
	if err != nil {
		return output{}, err
	}
	cache := dhyfd.NewPLICache(256 << 20)
	defer cache.Close()
	res, err := e.discover(ctx, rel, dhyfd.WithAlgorithm(dhyfd.TANE), dhyfd.WithCache(cache))
	if err != nil {
		return output{}, err
	}
	out := output{names: rel.Names, base: res.FDs, stats: res.Stats, isRank: true}
	out.cover = e.canonical(rel.NumCols(), res.FDs)
	id := e.tr.start(e.job, e.root, "ranking.rank")
	out.ranked, out.rank, err = dhyfd.Rank(ctx, rel, out.cover, dhyfd.WithWorkers(1), dhyfd.WithCache(cache))
	e.tr.end(id)
	if err != nil {
		return output{}, fmt.Errorf("rank: %w", err)
	}
	return out, nil
}
