package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/validate"
)

// Step is what a hybrid driver adds to the level loop Hybrid runs: the
// work after each validated and inducted level, and the state a
// checkpoint carries for it. DHyFD's step refreshes the DDM when the
// efficiency–inefficiency ratio says so; HyFD's switches into its
// progressive sampler when a level invalidated too much.
type Step interface {
	// Start runs once the single-attribute partitions are built, before
	// a cold run samples. order is the row order of the initial sample:
	// nil on an approximate run, which never samples, and on a resumed
	// run, which skips the initial sample, so a step that samples again
	// builds its own. resume is the frontier a resumed run restarts from,
	// nil on a cold run.
	Start(ctx context.Context, h *runstate.Harness, singles []*partition.Partition, order *sampling.RowOrder, resume *runstate.LevelFrontier)
	// AfterLevel runs after a level is validated and its non-FDs are
	// inducted; validations and invalidated count the level's checked and
	// failed (FD-node, RHS attribute) pairs. Non-FDs it adds to nonFDs
	// are inducted before the next level, and comparisons counts the
	// tuple pairs it compared to find them.
	AfterLevel(ctx context.Context, nonFDs *sampling.NonFDSet, validations, invalidated int) (comparisons int, err error)
	// Save records the step's state in a checkpoint frontier.
	Save(f *runstate.LevelFrontier)
	// Fold adds the step's counters to the run report.
	Fold(rs *engine.RunStats)
}

// hybrid is one run of the level loop: the search state both hybrids
// share, and the measures of the level being processed that DHyFD's
// efficiency–inefficiency decision reads.
type hybrid struct {
	r      *relation.Relation
	opts   runstate.Options
	h      *runstate.Harness
	step   Step
	m      *ddm
	v      *validate.Validator
	tree   *fdtree.Tree
	nonFDs *sampling.NonFDSet

	level      int            // the validation level being processed
	candidates []*fdtree.Node // its nodes
	total      int            // FDs it held before validation
	numNewFDs  int            // FDs it holds after validation and induction
	numFDs     int            // FDs at the levels processed so far

	initialNonFDs int // distinct agree sets after sampling and root validation
	comparisons   int // tuple pairs compared by all sampling
	levels        int // validation levels processed
}

// Hybrid runs the hybrid level loop of Algorithm 6 as the named
// algorithm and returns the left-reduced cover with the run report: it
// samples once, validates the root, then validates the FD-tree level by
// level against the DDM, inducting every witness non-FD before the next
// level and running step after each. Only DHyFD's own step refreshes the
// DDM; without refreshes every FD-node validates from its cheapest
// single-attribute partition. ctx is honoured between validation batches;
// on cancellation the partial report (with Cancelled set) is returned
// alongside ctx's error.
func Hybrid(ctx context.Context, r *relation.Relation, algorithm string, opts runstate.Options, step Step) ([]dep.FD, *engine.RunStats, error) {
	return new(hybrid).run(ctx, r, algorithm, opts, step)
}

func (l *hybrid) run(ctx context.Context, r *relation.Relation, algorithm string, opts runstate.Options, step Step) (fds []dep.FD, rs *engine.RunStats, err error) {
	h := runstate.Start(algorithm, opts)
	defer h.Recover(&fds, &rs, &err)
	l.r, l.opts, l.h, l.step = r, opts, h, step
	rs = h.Stats
	pool := h.Pool
	n := r.NumCols()
	if n == 0 {
		return h.End(nil, nil)
	}
	if err := ctx.Err(); err != nil {
		return h.End(nil, err)
	}
	stop := rs.Phase("singles")
	singles, built, err := partition.Singles(ctx, pool, r.Cols, r.Cards, 0, opts.Cache, opts.Budget)
	stop()
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		return h.End(nil, err)
	}
	stop = rs.Phase("sample")
	l.m = &ddm{r: r, singles: singles, epoch: 1, budget: opts.Budget, cache: opts.Cache}
	l.v = validate.New(r)
	l.v.MaxViolations = opts.MaxViolations
	approx := opts.MaxViolations > 0
	full := bitset.Full(n)
	lf := resumeLevel(opts.Resume)
	// The sorted-neighborhood order of the initial sample, built once
	// and handed to the step. Snapshots do not carry it, and a resumed
	// run skips the initial sample, so only a cold exact run builds it.
	var order *sampling.RowOrder
	if !approx && lf == nil {
		order = sampling.NewRowOrder(r)
	}
	step.Start(ctx, h, singles, order, lf)

	startLevel := 1
	if lf != nil {
		// Continue a checkpointed run: the restored tree and non-FD set are
		// the search state proper; sampling and root validation already
		// happened, so the run re-enters the level loop at the cursor. The
		// validator's exported counters and the loop's measures are
		// assigned from the snapshot — finish reads them, so the resumed
		// report is cumulative.
		l.tree = opts.Resume.Tree.Restore()
		l.nonFDs = opts.Resume.NonFDs.Restore()
		if l.nonFDs == nil {
			l.nonFDs = sampling.NewNonFDSet(n)
		}
		l.v.Validations = int(lf.Validations)
		l.v.Invalidated = int(lf.Invalidated)
		l.v.RowsScanned = int(lf.RowsScannedV)
		l.v.ClustersRefined = int(lf.ClustersRefined)
		l.numFDs = int(lf.NumFDs)
		l.initialNonFDs = int(lf.InitialNonFDs)
		l.comparisons = int(lf.Comparisons)
		l.levels = int(lf.Level) - 1
		rs.RowsScanned = lf.RowsScanned
		rs.PartitionsBuilt = lf.PartitionsBuilt
		startLevel = int(lf.Level)
		h.WarmCache(ctx, r)
		stop()
	} else {
		l.tree = fdtree.NewWithFullRHS(n)
		l.tree.ControlledLevel = 1

		// One-shot sampling plus root validation (Algorithm 6, lines 5–6).
		// Approximate runs skip sampling entirely, and their validator
		// records no witness pairs: one exact violating pair would refute
		// an FD the g3 bound still admits, so the tree may only specialize
		// from approximate validation outcomes.
		l.nonFDs = sampling.NewNonFDSet(n)
		if !approx {
			_, comps, err := sampling.ClusterNeighborSample(ctx, pool, r, order, singles, 1, l.nonFDs)
			if err != nil {
				stop()
				return h.End(nil, err)
			}
			l.comparisons += comps
			rs.RowsScanned += 2 * int64(l.comparisons)
		}
		rootValid := l.v.EmptyLHS(full, l.nonFDs)
		l.initialNonFDs = l.nonFDs.Len()
		stop()
		stop = rs.Phase("induct")
		l.tree.InductAll(l.nonFDs.Sets())
		if approx {
			if invalid := full.Difference(rootValid); !invalid.IsEmpty() {
				l.tree.Induct(bitset.New(n), invalid)
			}
		}
		stop()
		if opts.TopK != nil {
			rootScore := 0
			if r.NumRows() >= 2 {
				rootScore = r.NumRows()
			}
			for a := rootValid.Next(0); a >= 0; a = rootValid.Next(a + 1) {
				rhs := bitset.New(n)
				rhs.Add(a)
				opts.TopK.Admit(dep.FD{LHS: bitset.New(n), RHS: rhs}, rootScore)
			}
		}

		// The surviving root RHS attributes are the validated FDs ∅ → A.
		l.numFDs = l.tree.Root().RHSCount()
	}
	processed := l.nonFDs.Len()

	for vl := startLevel; vl <= l.tree.MaxLevel(); vl++ {
		if err := ctx.Err(); err != nil {
			// Level vl is untouched, so this is still a boundary: park
			// it for the final Flush and Ctrl-C loses nothing.
			l.tick(vl, true)
			return l.finish(nil, err)
		}
		l.tick(vl, false)
		l.level, l.candidates = vl, l.tree.NodesAtLevel(vl)
		l.levels++

		l.total = 0
		for _, node := range l.candidates {
			l.total += node.RHSCount()
		}
		before := l.v.Snapshot()
		stop = rs.Phase("validate")
		invalids, err := validateLevel(ctx, pool, r, l.m, l.candidates, l.v, l.nonFDs, &opts)
		stop()
		if err != nil {
			return l.finish(nil, err)
		}
		stop = rs.Phase("induct")
		l.tree.InductAll(l.nonFDs.Sets()[processed:])
		// Approximate runs specialize from the validation outcomes instead
		// of witness pairs: lhs → a failing the g3 bound fails for every
		// generalization too (monotonicity), which is exactly Induct's
		// removal semantics.
		for _, li := range invalids {
			l.tree.Induct(li.lhs, li.invalid)
		}
		stop()
		processed = l.nonFDs.Len()

		l.numNewFDs = 0
		for _, node := range l.candidates {
			if !node.Pruned {
				l.numNewFDs += node.RHSCount()
			}
		}
		l.numFDs += l.numNewFDs

		validations, invalidated := l.v.Since(before)
		comps, err := step.AfterLevel(ctx, l.nonFDs, validations, invalidated)
		l.comparisons += comps
		rs.RowsScanned += 2 * int64(comps)
		if err != nil {
			return l.finish(nil, err)
		}
		if l.nonFDs.Len() > processed {
			stop = rs.Phase("induct")
			l.tree.InductAll(l.nonFDs.Sets()[processed:])
			stop()
			processed = l.nonFDs.Len()
		}
	}

	if err := ctx.Err(); err != nil {
		return l.finish(nil, err)
	}
	// Terminal boundary: the cursor is past every tree level, so resuming a
	// post-completion snapshot replays no validation and re-emits the same
	// cover.
	l.tick(l.tree.MaxLevel()+1, true)
	if opts.TopK != nil {
		return l.finish(nil, nil) // the collector's FDs, in ranking order
	}
	fds = dep.SplitRHS(l.tree.FDs())
	dep.Sort(fds)
	return l.finish(fds, nil)
}

// tick snapshots the boundary before validation level vl: levels below
// it are fully validated and inducted into the tree, and the step records
// its own state, so a resumed run re-enters the loop exactly at vl.
func (l *hybrid) tick(vl int, force bool) {
	l.h.Tick(force, func() *runstate.Snapshot {
		f := &runstate.LevelFrontier{
			Version:         1,
			Level:           int64(vl),
			NumFDs:          int64(l.numFDs),
			Validations:     int64(l.v.Validations),
			Invalidated:     int64(l.v.Invalidated),
			RowsScannedV:    int64(l.v.RowsScanned),
			ClustersRefined: int64(l.v.ClustersRefined),
			InitialNonFDs:   int64(l.initialNonFDs),
			Comparisons:     int64(l.comparisons),
			RowsScanned:     l.h.Stats.RowsScanned,
			PartitionsBuilt: l.h.Stats.PartitionsBuilt,
		}
		l.step.Save(f)
		return &runstate.Snapshot{
			Tree:     runstate.TreeSnapOf(l.tree),
			NonFDs:   runstate.NonFDSnapOf(l.nonFDs, l.r.NumCols()),
			Frontier: runstate.FrontierSnap{Level: f},
		}
	})
}

// finish folds the validator's, the loop's and the step's measures into
// the report and closes the run.
func (l *hybrid) finish(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
	rs := l.h.Stats
	rs.CandidatesValidated = int64(l.v.Validations)
	rs.Invalidated = int64(l.v.Invalidated)
	rs.RowsScanned += int64(l.v.RowsScanned)
	rs.PartitionsRefined += int64(l.v.ClustersRefined)
	rs.NonFDs = int64(l.nonFDs.Len())
	rs.Levels = int64(l.levels)
	rs.Count("sampling_comparisons", int64(l.comparisons))
	l.step.Fold(rs)
	return l.h.End(fds, err)
}

// resumeLevel extracts a snapshot's level frontier, nil when the run
// starts cold or the snapshot belongs to another algorithm family.
func resumeLevel(s *runstate.Snapshot) *runstate.LevelFrontier {
	if s == nil || s.Frontier.Level == nil || s.Tree == nil {
		return nil
	}
	return s.Frontier.Level
}

// levelInvalid records one approximate invalidation: every RHS attribute
// of invalid failed the g3 bound at lhs, refuting lhs → a and (by
// monotonicity) every generalization.
type levelInvalid struct {
	lhs     bitset.Set
	invalid bitset.Set
}

// validateNode validates one FD-node: the fused top-k bound check and
// possible skip, the validator call, heap admissions of validated FDs,
// and — on approximate runs — the invalid RHS set for post-level
// induction. Safe to run concurrently for distinct nodes (the collector
// is concurrent; the DDM is read-only during a level except for per-node
// id resets).
func validateNode(node *fdtree.Node, n int, m *ddm, v *validate.Validator, nonFDs *sampling.NonFDSet, opts *runstate.Options) (levelInvalid, bool) {
	lhs := node.Path(n)
	if opts.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		bound := -1
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			if s := m.singles[a].Size(); bound < 0 || s < bound {
				bound = s
			}
		}
		if bound >= 0 && opts.TopK.Prunable(bound) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	p, attrs := m.partitionFor(node, lhs)
	valid := v.FD(lhs, node.RHS, p, attrs, nonFDs)
	if opts.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for a := valid.Next(0); a >= 0; a = valid.Next(a + 1) {
			rhs := bitset.New(n)
			rhs.Add(a)
			opts.TopK.Admit(dep.FD{LHS: lhs, RHS: rhs}, score)
		}
	}
	if opts.MaxViolations > 0 {
		if inv := node.RHS.Difference(valid); !inv.IsEmpty() {
			return levelInvalid{lhs: lhs, invalid: inv}, true
		}
	}
	return levelInvalid{}, false
}

// validateLevel validates the FD-nodes among candidates against their DDM
// partitions, collecting witness non-FDs (exact runs) or per-node invalid
// sets (approximate runs, whose validator records no witnesses; returned
// in candidate order so induction stays deterministic for any worker
// count). With a pool of two or more workers
// and at least four candidates per worker, the candidates fan out over
// engine.Pool workers: each worker owns a validator and a local non-FD
// buffer, merged into v and nonFDs after the level; smaller levels run
// inline. The DDM is read-only during a level except for per-node id
// resets, which are safe because every node is processed by exactly one
// worker. Counters are merged even on cancellation so partial runs report
// honestly.
func validateLevel(ctx context.Context, pool *engine.Pool, r *relation.Relation, m *ddm, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet, opts *runstate.Options) ([]levelInvalid, error) {
	n := r.NumCols()
	var invalids []levelInvalid
	workers := pool.Workers()
	if workers < 2 || len(candidates) < 4*workers {
		for i, node := range candidates {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return invalids, err
				}
			}
			if !node.IsFDNode() {
				continue
			}
			if li, ok := validateNode(node, n, m, v, nonFDs, opts); ok {
				invalids = append(invalids, li)
			}
		}
		return invalids, nil
	}

	locals := make([]*sampling.NonFDSet, workers)
	validators := make([]*validate.Validator, workers)
	for w := 0; w < workers; w++ {
		locals[w] = sampling.NewNonFDSet(n)
		validators[w] = validate.New(r)
		validators[w].MaxViolations = opts.MaxViolations
	}
	slots := make([]levelInvalid, len(candidates))
	found := make([]bool, len(candidates))
	err := pool.Run(ctx, len(candidates), func(w, i int) {
		if node := candidates[i]; node.IsFDNode() {
			slots[i], found[i] = validateNode(node, n, m, validators[w], locals[w], opts)
		}
	})
	for w := 0; w < workers; w++ {
		v.Validations += validators[w].Validations
		v.Invalidated += validators[w].Invalidated
		v.RowsScanned += validators[w].RowsScanned
		v.ClustersRefined += validators[w].ClustersRefined
		for _, x := range locals[w].Sets() {
			nonFDs.Add(x)
		}
	}
	for i, ok := range found {
		if ok {
			invalids = append(invalids, slots[i])
		}
	}
	return invalids, err
}
