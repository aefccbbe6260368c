// Package dhyfd discovers, minimizes and ranks the functional dependencies
// of relational data.
//
// The package implements the system of "Discovery and Ranking of Functional
// Dependencies" (Wei and Link, ICDE 2019): the DHyFD hybrid discovery
// algorithm with its dynamic data manager, the TANE / FDEP / HyFD baselines
// it is evaluated against (plus FastFDs and DFD from its related work),
// canonical-cover computation, and the ranking of FDs by the number of
// redundant data values they cause.
//
// Quick start:
//
//	rel, err := dhyfd.ReadCSVFile("voters.csv", dhyfd.Options{})
//	ctx := context.Background()
//	res, err := dhyfd.Discover(ctx, rel, dhyfd.WithTopK(10))
//	for _, r := range res.Ranked {                       // most relevant first
//		fmt.Printf("%6d  %s\n", r.Counts.WithNulls, r.FD.Format(rel.Names))
//	}
//	fmt.Println(res.Stats.String())                      // where the time went
//
// Discovery returns a left-reduced cover: every minimal FD X → A with a
// singleton right-hand side, bundled in a Result together with the run
// report (per-phase wall time, rows scanned, partitions built and refined,
// candidates validated). Options select the algorithm and tuning:
//
//	res, err := dhyfd.Discover(ctx, rel,
//		dhyfd.WithAlgorithm(dhyfd.TANE),
//		dhyfd.WithWorkers(4),
//		dhyfd.WithDeadline(time.Now().Add(30*time.Second)))
//
// WithTopK(k) fuses the paper's ranking into the search: the run keeps
// only the k FDs causing the most redundant data values (Section VI) and
// prunes lattice branches that provably cannot reach the top k, returning
// them pre-ranked in Result.Ranked. WithMaxError(eps) relaxes validity to
// approximate FDs whose g3 violation count stays within eps of the row
// count. Cancel ctx (or let the deadline pass) and Discover returns
// promptly with the context's error and a partial Result whose Stats
// record the phases completed so far. CanonicalCover shrinks the cover to
// a non-redundant one with unique left-hand sides, and Rank orders any
// cover by relevance after the fact:
//
//	can := dhyfd.CanonicalCover(rel.NumCols(), res.FDs)  // much smaller cover
//	ranked, _, err := dhyfd.Rank(ctx, rel, can)
package dhyfd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/partition"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/tane"
	"repro/internal/topk"
)

// FD is a functional dependency over column indexes of a Relation. The
// zero-based attribute sets render with Format and the relation's Names.
type FD = dep.FD

// Relation is dictionary-encoded relational data; see ReadCSV, FromRows
// and FromCodes.
type Relation = relation.Relation

// NullSemantics selects how missing values compare during discovery.
type NullSemantics = relation.NullSemantics

const (
	// NullEqNull treats all missing values as one value (the default and
	// the paper's main experimental setting).
	NullEqNull = relation.NullEqNull
	// NullNeqNull treats every missing value as unique; nulls never agree.
	NullNeqNull = relation.NullNeqNull
)

// Options configures data ingestion.
type Options = relation.Options

// ReadCSV parses CSV data with a header row into a Relation. It reads
// what encoding/csv's Reader reads with its defaults and fails with the
// same *csv.ParseError.
func ReadCSV(r io.Reader, opts Options) (*Relation, error) {
	return relation.ReadCSV(r, opts)
}

// ReadCSVFile parses the CSV file at path into a Relation.
func ReadCSVFile(path string, opts Options) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dhyfd: %w", err)
	}
	defer f.Close()
	return relation.ReadCSV(f, opts)
}

// FromRows encodes raw string rows into a Relation.
func FromRows(names []string, rows [][]string, opts Options) (*Relation, error) {
	return relation.FromRows(names, rows, opts)
}

// FromCodes builds a Relation from pre-encoded column-major codes.
func FromCodes(names []string, cols [][]int32, nulls [][]bool, sem NullSemantics) *Relation {
	return relation.FromCodes(names, cols, nulls, sem)
}

// Algorithm selects a discovery algorithm. DHyFD is the paper's
// contribution and the default; the others are the evaluated baselines.
type Algorithm int

const (
	// DHyFD is the dynamic hybrid algorithm (default).
	DHyFD Algorithm = iota
	// HyFD is the sampling-focused hybrid of Papenbrock and Naumann.
	HyFD
	// TANE is the column-based lattice algorithm.
	TANE
	// FDEP is the row-based algorithm with classic induction.
	FDEP
	// FDEP1 is FDEP over a non-redundant cover of non-FDs with synergized
	// induction.
	FDEP1
	// FDEP2 is FDEP with descending-sorted non-FDs and synergized
	// induction — the variant the paper's evaluation calls FDEP.
	FDEP2
	// FastFDs is the depth-first difference-set algorithm of Wyss,
	// Giannella and Robertson — a related-work extension beyond the
	// paper's evaluated baselines.
	FastFDs
	// DFD is the random-walk lattice algorithm of Abedjan, Schulze and
	// Naumann — likewise a related-work extension.
	DFD
)

var algorithmNames = map[Algorithm]string{
	DHyFD: "dhyfd", HyFD: "hyfd", TANE: "tane",
	FDEP: "fdep", FDEP1: "fdep1", FDEP2: "fdep2",
	FastFDs: "fastfds", DFD: "dfd",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a name like "dhyfd" or "TANE". Matching is
// case-insensitive and deterministic: candidates are tried in the stable
// order of Algorithms.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(algorithmNames[a], name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("dhyfd: unknown algorithm %q", name)
}

// Algorithms lists all available algorithms in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{DHyFD, HyFD, TANE, FDEP, FDEP1, FDEP2, FastFDs, DFD}
}

// RunStats is the algorithm-agnostic run report every algorithm emits:
// per-phase wall time, hot-path counters (rows scanned, partitions built
// and refined, candidates validated) and the cancellation and degradation
// state.
type RunStats = engine.RunStats

// PanicError is the typed error a panic inside the discovery runtime is
// promoted to: Discover returns it alongside a partial Result instead of
// crashing the process. Site attributes the failure, Stack holds the
// panicking goroutine's stack. Unwrap it with errors.As:
//
//	var pe *dhyfd.PanicError
//	if errors.As(err, &pe) { log.Printf("panic at %s:\n%s", pe.Site, pe.Stack) }
type PanicError = engine.PanicError

// Result bundles a discovery run's output: the left-reduced cover and the
// run report. On cancellation Discover returns a partial Result — Stats
// describe the phases completed before the context fired — alongside the
// context's error.
type Result struct {
	// FDs is the left-reduced cover: every minimal FD with a singleton RHS.
	// Under WithTopK it holds the k best FDs in ranked order. It is never
	// nil when Discover returns no error, so an empty cover encodes as
	// [] for every algorithm.
	FDs []FD
	// Ranked pairs each FD with its redundancy counts, sorted most relevant
	// first. Populated only under WithTopK; otherwise nil (rank a full
	// cover with Rank).
	Ranked []RankedFD
	// Algorithm is the algorithm that produced the cover.
	Algorithm Algorithm
	// Stats reports what the run did and where the time went.
	Stats RunStats
}

// Option tunes a Discover call; see WithAlgorithm, WithWorkers, WithRatio
// and WithDeadline.
type Option func(*discoverConfig)

type discoverConfig struct {
	algorithm  Algorithm
	workers    int
	ratio      float64
	deadline   time.Time
	memBudget  int64 // bytes; < 0 = unlimited
	maxParts   int64 // partitions; < 0 = unlimited
	cacheBytes int64 // PLI cache capacity; <= 0 = disabled
	cache      *PLICache
	noVerify   bool
	topK       int     // > 0 enables the fused top-k search
	maxErr     float64 // g3 error bound in [0, 1); 0 = exact
	ckptDir    string  // checkpoint directory; "" = durability off
	ckptEvery  time.Duration
	resumeDir  string // resume directory; "" = cold start
	optErr     error  // first invalid option, reported by Discover
}

// WithAlgorithm selects the discovery algorithm (default DHyFD).
func WithAlgorithm(a Algorithm) Option {
	return func(c *discoverConfig) { c.algorithm = a }
}

// WithWorkers sets the worker-pool width of the run's parallel passes,
// each of which fans out over its own items: the hybrids' validation
// over a level's FD-nodes, TANE's level joins and DHyFD's DDM refreshes
// over refinement jobs, the PLI bootstrap (and DFD's cache prewarm) over
// columns, the hybrids' initial sample over the columns' partitions, the
// FDEP and FastFDs pair scan over blocks of outer rows of about equal
// pair count, and post-run verification and top-k ranking over LHS
// groups. No pass cuts one partition into parts, so DFD's lattice walk
// and HyFD's progressive sampling rounds run serially. The cover is
// identical at every width; values below 2 keep the serial behaviour.
func WithWorkers(n int) Option {
	return func(c *discoverConfig) { c.workers = n }
}

// WithRatio sets DHyFD's efficiency–inefficiency threshold (default 3.0,
// the paper's tuned value). Other algorithms ignore it.
func WithRatio(ratio float64) Option {
	return func(c *discoverConfig) { c.ratio = ratio }
}

// WithDeadline bounds the run's wall time: past d, Discover returns
// context.DeadlineExceeded with a partial Result. It composes with the
// caller's ctx; whichever deadline is earlier wins.
func WithDeadline(d time.Time) Option {
	return func(c *discoverConfig) { c.deadline = d }
}

// WithMemoryBudget bounds the approximate partition memory a run may hold
// live (clusters × rows accounting over the PLI caches). On exhaustion the
// run stops refining — DHyFD disables DDM refreshes, TANE abandons deeper
// lattice levels, DFD abandons its remaining walks — finishes validating
// the candidates in flight, and returns with Stats.Degraded set and the
// reason in Stats.DegradedReason, instead of exhausting memory. A budget
// of 0 degrades immediately; the row-based FDEP variants hold no
// partitions and ignore it. Degraded partial covers pass the post-run
// soundness verifier before Discover returns them.
func WithMemoryBudget(bytes int64) Option {
	return func(c *discoverConfig) {
		if bytes < 0 {
			bytes = 0
		}
		c.memBudget = bytes
	}
}

// WithMaxPartitions caps the total number of stripped partitions a run may
// materialize, the coarse-grained companion of WithMemoryBudget with the
// same degradation semantics.
func WithMaxPartitions(n int) Option {
	return func(c *discoverConfig) {
		if n < 0 {
			n = 0
		}
		c.maxParts = int64(n)
	}
}

// WithPartitionCache bounds a shared PLI cache at the given byte capacity
// and routes the run's partition lookups through it: single-attribute
// partitions, TANE's lattice joins, DFD's node partitions, DHyFD's DDM
// refreshes and the post-run soundness verifier all consult the cache
// before building, and publish what they build. Entries are evicted LRU
// at the capacity bound; under a WithMemoryBudget the cache additionally
// yields to the run — it sheds entries (or rejects inserts) rather than
// consuming headroom the run itself needs, so caching never degrades a
// run that would otherwise finish. Cache traffic is reported in
// Result.Stats (CacheHits / CacheMisses / CacheEvictions). Zero or
// negative disables caching (the default).
func WithPartitionCache(bytes int64) Option {
	return func(c *discoverConfig) { c.cacheBytes = bytes }
}

// withoutPostVerify disables the post-run soundness verifier, for tests
// that inspect raw degraded output.
func withoutPostVerify() Option {
	return func(c *discoverConfig) { c.noVerify = true }
}

// PLICache is a caller-owned, size-bounded LRU cache of stripped
// partitions that a whole discover→rank pipeline shares: pass it to
// Discover and to Rank / TotalRedundancy / RankForColumn via WithCache,
// and the partitions discovery builds are reused by ranking
// (and by later runs over the same relation) instead of being rebuilt.
// A PLICache is safe for concurrent use; it serves partitions of one
// relation shape — the first run pins the row count.
type PLICache struct {
	c *partition.Cache
}

// NewPLICache returns a cache bounded by maxBytes of partition memory
// (values <= 0 use a 64 MiB default). Entries are evicted least recently
// used at the bound.
func NewPLICache(maxBytes int64) *PLICache {
	if maxBytes <= 0 {
		maxBytes = ranking.DefaultCacheBytes
	}
	return &PLICache{c: partition.NewCache(maxBytes, nil)}
}

// Len returns the number of cached partitions.
func (pc *PLICache) Len() int {
	if pc == nil {
		return 0
	}
	return pc.c.Len()
}

// Bytes returns the resident partition bytes.
func (pc *PLICache) Bytes() int64 {
	if pc == nil {
		return 0
	}
	return pc.c.Bytes()
}

// Close releases the cache by purging its entries, and returns nil.
// Call it once no Discover or ranking call is using the cache; results
// already returned stay valid. Idempotent and safe on nil.
func (pc *PLICache) Close() error {
	if pc == nil {
		return nil
	}
	return pc.c.Close()
}

// WithCache routes the run's partition lookups through the caller-owned
// cache, so a single cache spans Discover and the ranking calls that
// follow. It supersedes WithPartitionCache (which creates a run-private
// cache of the given capacity); a nil pc leaves caching as otherwise
// configured.
func WithCache(pc *PLICache) Option {
	return func(c *discoverConfig) { c.cache = pc }
}

// WithTopK restricts discovery to the k most relevant FDs — the ones
// causing the most redundant data values (the ranking of Section VI) —
// returned pre-ranked in Result.Ranked with their redundancy counts, and
// mirrored in Result.FDs. For the lattice algorithms (DHyFD, HyFD, TANE,
// DFD) the limit is fused into the search: the run maintains a concurrent
// top-k heap scored by ‖π_LHS‖ (exactly the #red+0 count of a valid FD)
// and abandons branches whose redundancy upper bound cannot enter the
// heap, so low-relevance regions of the lattice are never validated. The
// result is identical to discovering the full cover, ranking it and
// truncating — just cheaper. The row-based algorithms (FDEP variants,
// FastFDs) have no lattice to prune and fall back to exactly that
// rank-and-truncate. Heap traffic and abandoned branches are reported in
// Stats under topk_admitted / topk_rejected / topk_pruned_branches.
// k of 0 disables the limit (the default); negative k is an error.
func WithTopK(k int) Option {
	return func(c *discoverConfig) {
		if k < 0 {
			c.optErr = fmt.Errorf("dhyfd: WithTopK(%d): k must be >= 0", k)
			return
		}
		c.topK = k
	}
}

// WithMaxError relaxes discovery to approximate FDs: X → A is accepted
// while its g3 error — the fraction of rows to delete for it to hold
// exactly — stays at or below eps. The bound applies per candidate during
// the search (row sampling is disabled for the hybrids: an exact
// counterexample pair no longer refutes a candidate), and the returned
// cover is re-verified against the relation before Discover returns, so
// every reported FD genuinely satisfies the bound. eps of 0 keeps exact
// discovery (the default); eps outside [0, 1) is an error, as is
// combining a non-zero eps with the row-based algorithms (FDEP variants,
// FastFDs), which derive covers from exact difference sets.
func WithMaxError(eps float64) Option {
	return func(c *discoverConfig) {
		if eps < 0 || eps >= 1 {
			c.optErr = fmt.Errorf("dhyfd: WithMaxError(%v): eps must be in [0, 1)", eps)
			return
		}
		c.maxErr = eps
	}
}

// Snapshot rejection errors, re-exported so callers of WithResume can
// classify a refusal with errors.Is. A directory without a snapshot is not
// an error — WithResume cold-starts there.
var (
	// ErrSnapshotCorrupt reports a snapshot failing its checksum or
	// decoding inconsistently.
	ErrSnapshotCorrupt = runstate.ErrCorrupt
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format or section version.
	ErrSnapshotVersion = runstate.ErrVersion
	// ErrSnapshotMismatch reports a healthy snapshot belonging to a
	// different run: another relation, algorithm, or result-shaping option.
	ErrSnapshotMismatch = runstate.ErrMismatch
)

// WithCheckpoint makes the run durable: the driver snapshots its resumable
// state — the FD-tree or live lattice level, the non-FD set, the top-k
// heap, the run report and a PLI-cache manifest — into dir at every search
// boundary, writing the file atomically (temp + fsync + rename) whenever
// interval has elapsed since the last write (non-positive intervals select
// runstate's 30 s default). A later Discover over the same relation and
// result-shaping options resumes from the snapshot with WithResume and
// emits a cover byte-identical to an uninterrupted run. Deadline and
// cancellation exits flush a final snapshot before returning, so an
// interrupt never loses the frontier. Supported by every algorithm except
// the FDEP variants, whose single induction pass has no resumable
// frontier.
func WithCheckpoint(dir string, interval time.Duration) Option {
	return func(c *discoverConfig) {
		if dir == "" {
			c.optErr = errors.New("dhyfd: WithCheckpoint: dir must be non-empty")
			return
		}
		c.ckptDir = dir
		c.ckptEvery = interval
	}
}

// WithResume continues a run from the snapshot in dir, skipping the work
// the checkpointed run already finished. An empty dir is an error; a dir
// without a snapshot is a cold start (so a crash before the first
// checkpoint re-runs cleanly under the same flags). A snapshot from a
// different relation, algorithm, or result-shaping option is rejected
// with runstate.ErrMismatch; damaged or version-skewed snapshots with
// runstate.ErrCorrupt / runstate.ErrVersion. Resumed covers are
// re-verified against the relation before they are returned. Combine with
// WithCheckpoint on the same dir to keep checkpointing the continued run.
func WithResume(dir string) Option {
	return func(c *discoverConfig) {
		if dir == "" {
			c.optErr = errors.New("dhyfd: WithResume: dir must be non-empty")
			return
		}
		c.resumeDir = dir
	}
}

// Discover computes the left-reduced cover of the FDs holding on r. With
// no options it runs DHyFD with the paper's tuning. The context cancels
// the run cooperatively: on cancellation Discover returns ctx's error and
// a partial Result whose Stats (Cancelled = true) cover the work done so
// far.
//
// Discover never re-panics: a panic anywhere in the runtime surfaces as a
// *PanicError alongside the partial Result. Runs that end early for any
// reason — cancelled, degraded under a WithMemoryBudget/WithMaxPartitions
// budget, or errored — have their partial cover re-verified against the
// relation before it is returned, so every FD in Result.FDs holds on
// every row of the data.
func Discover(ctx context.Context, r *Relation, opts ...Option) (res *Result, err error) {
	cfg := discoverConfig{memBudget: -1, maxParts: -1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.optErr != nil {
		return &Result{Algorithm: cfg.algorithm}, cfg.optErr
	}
	// The lattice algorithms support the fused top-k heap and approximate
	// validation; the row-based ones derive covers from exact difference
	// sets, so they reject WithMaxError and satisfy WithTopK by ranking
	// and truncating their full cover (see attachTopK).
	lattice := false
	switch cfg.algorithm {
	case DHyFD, HyFD, TANE, DFD:
		lattice = true
	case FDEP, FDEP1, FDEP2, FastFDs:
	default:
		return &Result{Algorithm: cfg.algorithm}, fmt.Errorf("dhyfd: unknown algorithm %v", cfg.algorithm)
	}
	maxViol := 0
	if cfg.maxErr > 0 {
		if !lattice {
			return &Result{Algorithm: cfg.algorithm},
				fmt.Errorf("dhyfd: WithMaxError is not supported by the row-based %v; use DHyFD, HyFD, TANE or DFD", cfg.algorithm)
		}
		maxViol = int(cfg.maxErr * float64(r.NumRows()))
	}
	// Durability: every algorithm with a resumable search frontier supports
	// checkpoint/resume; the FDEP variants' single induction pass does not.
	if cfg.ckptDir != "" || cfg.resumeDir != "" {
		switch cfg.algorithm {
		case DHyFD, HyFD, TANE, DFD, FastFDs:
		default:
			return &Result{Algorithm: cfg.algorithm},
				fmt.Errorf("dhyfd: WithCheckpoint/WithResume are not supported by %v; use DHyFD, HyFD, TANE, DFD or FastFDs", cfg.algorithm)
		}
	}
	var fp runstate.Fingerprint
	if cfg.ckptDir != "" || cfg.resumeDir != "" {
		fp = runstate.FingerprintOf(r, cfg.algorithm.String(), cfg.topK, int64(maxViol))
	}
	var snap *runstate.Snapshot
	if cfg.resumeDir != "" {
		s, lerr := runstate.Load(cfg.resumeDir)
		switch {
		case errors.Is(lerr, runstate.ErrNoCheckpoint):
			// Nothing written yet: a cold start under the same flags.
		case lerr != nil:
			return &Result{Algorithm: cfg.algorithm}, lerr
		default:
			if merr := s.Fingerprint.Match(fp); merr != nil {
				return &Result{Algorithm: cfg.algorithm}, merr
			}
			snap = s
		}
	}
	var cp *runstate.Checkpointer
	if cfg.ckptDir != "" {
		c, cerr := runstate.NewCheckpointer(cfg.ckptDir, cfg.ckptEvery, fp)
		if cerr != nil {
			return &Result{Algorithm: cfg.algorithm}, cerr
		}
		cp = c
	}
	var collector *topk.Collector
	if cfg.topK > 0 && lattice {
		if snap != nil && snap.TopK != nil {
			collector = snap.TopK.Restore()
		} else {
			collector = topk.New(cfg.topK)
		}
	}
	if !cfg.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.deadline)
		defer cancel()
	}
	var budget *partition.Budget
	if cfg.memBudget >= 0 || cfg.maxParts >= 0 {
		budget = partition.NewBudget(cfg.memBudget, cfg.maxParts)
	}
	cache := partition.NewCache(cfg.cacheBytes, budget)
	if cfg.cache != nil {
		cache = cfg.cache.c
	}

	res = &Result{Algorithm: cfg.algorithm}
	// Backstop: the drivers recover their own panics into typed errors
	// with their partial run report, but option plumbing, future drivers
	// and the post-run verifier must not crash the caller either.
	defer func() {
		if rec := recover(); rec != nil {
			err = engine.NewPanicError("discover", rec)
			res.FDs = nil
		}
	}()

	var (
		fds []FD
		rs  *engine.RunStats
	)
	shared := runstate.Options{
		Workers: cfg.workers, Budget: budget, Cache: cache,
		TopK: collector, MaxViolations: maxViol,
		Checkpoint: cp, Resume: snap,
	}
	switch cfg.algorithm {
	case DHyFD:
		fds, rs, err = core.Run(ctx, r, core.Config{Options: shared, Ratio: cfg.ratio})
	case HyFD:
		fds, rs, err = hyfd.Run(ctx, r, shared)
	case TANE:
		fds, rs, err = tane.Run(ctx, r, shared)
	case FDEP:
		fds, rs, err = fdep.Run(ctx, r, fdep.Classic, shared)
	case FDEP1:
		fds, rs, err = fdep.Run(ctx, r, fdep.NonRedundant, shared)
	case FDEP2:
		fds, rs, err = fdep.Run(ctx, r, fdep.Sorted, shared)
	case FastFDs:
		fds, rs, err = fastfds.Run(ctx, r, shared)
	case DFD:
		fds, rs, err = dfd.Run(ctx, r, shared)
	}

	res.FDs = fds
	if rs != nil {
		res.Stats = *rs
	}
	if r.Paged() {
		paged, faults := r.PagerStats()
		res.Stats.ColumnsPaged = paged
		res.Stats.ColumnPageFaults = faults
	}
	if cp != nil {
		// The final flush persists the terminal boundary so a post-run
		// resume replays nothing. Its failure only surfaces when the run
		// itself succeeded — a cancelled run's own error wins.
		if ferr := cp.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		res.Stats.Count("checkpoints", cp.Saves())
	}
	if snap != nil {
		res.Stats.Count("resumed", 1)
	}
	if (err != nil || res.Stats.Degraded || maxViol > 0 || snap != nil) && !cfg.noVerify {
		// The gate must complete even when the run was cancelled — it is
		// exactly the cancelled run's partial cover that needs vetting —
		// so it runs on a non-cancellable derivation of the caller's ctx.
		if verr := verifySoundness(context.WithoutCancel(ctx), r, res, cache, maxViol, cfg.workers); verr != nil && err == nil {
			err = verr
		}
	}
	if cfg.topK > 0 {
		if rerr := attachTopK(ctx, r, res, &cfg, cache); err == nil {
			err = rerr
		}
	}
	if err == nil && res.FDs == nil {
		res.FDs = []FD{}
	}
	return res, err
}

// attachTopK ranks the cover with the redundancy kernels, truncates it to
// the k most relevant FDs and publishes them as Result.Ranked (mirrored
// in Result.FDs). Under the fused search the cover is already the heap's
// at-most-k admissions — ranking them attaches the full redundancy counts
// to the in-search ‖π_LHS‖ scores and costs k partition lookups against
// the run's cache. For the row-based algorithms, which expose no in-search
// pruning hook, this is the fallback that makes WithTopK behave uniformly
// across WithAlgorithm.
func attachTopK(ctx context.Context, r *Relation, res *Result, cfg *discoverConfig, cache *partition.Cache) error {
	ranked, rstats, err := ranking.RankCtx(ctx, r, res.FDs, ranking.Config{Workers: cfg.workers, Cache: cache})
	rstats.AddToRunStats(&res.Stats)
	if len(ranked) > cfg.topK {
		ranked = ranked[:cfg.topK:cfg.topK]
	}
	res.Ranked = ranked
	fds := make([]FD, len(ranked))
	for i, rf := range ranked {
		fds[i] = rf.FD
	}
	res.FDs = fds
	res.Stats.FDs = int64(len(fds))
	return err
}

// verifySoundness re-validates a partial cover against every row of the
// relation and drops any FD that does not hold, recording the outcome in
// the run report's counters (postverify_checked / postverify_dropped).
// With maxViol > 0 it verifies the g3 bound of approximate covers instead
// of exact validity. The run's PLI cache, when enabled, supplies the LHS
// partitions the run already built, one lookup per distinct LHS; the
// extra cache traffic is folded into the run report, and with workers > 1
// the LHS groups fan out over a pool of that width. Clean complete exact
// runs skip it: their cover is exact by construction and continuously
// cross-checked in the test suite. A verification failure (an injected
// fault, a worker panic) returns after keeping only the FDs already
// proven sound — the cover stays conservative, never unsound.
func verifySoundness(ctx context.Context, r *Relation, res *Result, cache *partition.Cache, maxViol, workers int) error {
	if r == nil || len(res.FDs) == 0 {
		return nil
	}
	cache0 := cache.Stats()
	rep, err := check.VerifyCover(ctx, r, res.FDs, check.VerifyOptions{
		Cache: cache, MaxViolations: maxViol, Workers: workers,
	})
	delta := cache.Stats().Delta(cache0)
	res.Stats.CacheHits += delta.Hits
	res.Stats.CacheMisses += delta.Misses
	res.Stats.CacheEvictions += delta.Evictions
	res.FDs = rep.Sound
	res.Stats.FDs = int64(len(rep.Sound))
	res.Stats.Count("postverify_checked", int64(rep.Checked))
	res.Stats.Count("postverify_dropped", int64(rep.Violated))
	return err
}
