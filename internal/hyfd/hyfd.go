// Package hyfd implements the hybrid FD discovery algorithm of Papenbrock
// and Naumann (SIGMOD 2016), the strongest baseline of the paper.
//
// HyFD alternates two phases. The sampling phase compares likely-similar
// tuple pairs — sorted-neighborhood runs over the clusters of the
// single-attribute partitions, with a per-column efficiency queue that
// always grows the most productive run — and inducts the resulting non-FDs
// into an FD-tree. The validation phase checks the tree level by level
// against the data; when a level invalidates more than a configured
// fraction of its candidates, control returns to the (cheaper) sampler to
// prune deeper levels before they are reached.
//
// Following the paper (Section V-B), this implementation uses synergized
// induction on extended FD-trees, which already improves on the published
// HyFD numbers. Validation always refines the single-attribute partitions
// from scratch; reusing refinements across levels is exactly what DHyFD's
// dynamic data manager adds (package core). The validation phase runs on
// the shared engine.Pool when Config.Workers is above one.
package hyfd

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

// Config tunes the phase-switching heuristics; the zero value is the
// configuration used in the experiments. Of the shared run options,
// Workers parallelizes the validation phase only (sampling and induction
// are sequential either way); HyFD holds nothing but the single-attribute
// partitions, so Budget exhaustion cannot change its behaviour and only
// flags the run Degraded; MaxViolations > 0 disables sampling, since exact
// violating pairs must not refute approximately valid FDs.
type Config struct {
	runstate.Options
	// InvalidSwitchRatio: after a validation level, switch to sampling when
	// invalidated/validated exceeds this fraction. Default 0.01.
	InvalidSwitchRatio float64
	// SamplingEfficiency: a sampling phase keeps growing runs while the best
	// run yields at least this many new non-FDs per comparison. Default 0.01.
	SamplingEfficiency float64
}

func (c *Config) fillDefaults() {
	if c.InvalidSwitchRatio <= 0 {
		c.InvalidSwitchRatio = 0.01
	}
	if c.SamplingEfficiency <= 0 {
		c.SamplingEfficiency = 0.01
	}
}

// stats holds the HyFD-specific measures of a run; finish folds them into
// the run report's counters.
type stats struct {
	samplingRounds int // sorted-neighborhood runs executed
	comparisons    int // tuple pairs compared while sampling
	levels         int // validation levels processed
}

// run is one sorted-neighborhood sampling run state for a column.
type run struct {
	col        int
	distance   int     // next window distance to execute
	efficiency float64 // of the last executed window
	exhausted  bool
}

type sampler struct {
	ctx  context.Context
	pool *engine.Pool
	r    *relation.Relation
	plis []*partition.Partition
	runs []run
	cfg  Config
}

func newSampler(ctx context.Context, pool *engine.Pool, r *relation.Relation, plis []*partition.Partition, cfg Config) *sampler {
	s := &sampler{ctx: ctx, pool: pool, r: r, plis: plis, cfg: cfg}
	for c := range plis {
		maxCluster := 0
		for _, cl := range plis[c].Clusters {
			if len(cl) > maxCluster {
				maxCluster = len(cl)
			}
		}
		s.runs = append(s.runs, run{
			col:        c,
			distance:   1,
			efficiency: 1, // optimistic until first measured
			exhausted:  maxCluster < 2,
		})
	}
	return s
}

// step executes the most promising run. It reports new non-FDs,
// comparisons, and whether any run was executed at all. The sampling
// pass shards across the run's pool (byte-identical merge, so the
// efficiency trajectory matches the serial pass at every shard size).
func (s *sampler) step(dst *sampling.NonFDSet) (newNonFDs, comparisons int, ran bool, err error) {
	best := -1
	for i := range s.runs {
		if s.runs[i].exhausted {
			continue
		}
		if best < 0 || s.runs[i].efficiency > s.runs[best].efficiency {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false, nil
	}
	ru := &s.runs[best]
	newN, comps, err := sampling.ClusterNeighborSampleSharded(s.ctx, s.pool, s.r, s.plis[ru.col], ru.distance, dst, s.cfg.ShardSize)
	if err != nil {
		return 0, 0, false, err
	}
	ru.distance++
	if comps == 0 {
		ru.exhausted = true
		ru.efficiency = 0
	} else {
		ru.efficiency = float64(newN) / float64(comps)
	}
	return newN, comps, true, nil
}

// phase runs sampling until the best run drops below the efficiency
// threshold (always executing at least one run).
func (s *sampler) phase(dst *sampling.NonFDSet, st *stats) error {
	first := true
	for {
		bestEff := 0.0
		for i := range s.runs {
			if !s.runs[i].exhausted && s.runs[i].efficiency > bestEff {
				bestEff = s.runs[i].efficiency
			}
		}
		if !first && bestEff < s.cfg.SamplingEfficiency {
			return nil
		}
		_, comps, ran, err := s.step(dst)
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
		st.samplingRounds++
		st.comparisons += comps
		first = false
	}
}

func (s *sampler) alive() bool {
	for i := range s.runs {
		if !s.runs[i].exhausted {
			return true
		}
	}
	return false
}

// Run returns the left-reduced cover of the FDs holding on r together with
// the algorithm-agnostic run report, honouring ctx between validation
// batches and sampling runs. On cancellation the partial report (with
// Cancelled set) is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	cfg.fillDefaults()
	h := runstate.Start("hyfd", cfg.Options)
	defer h.Recover(&fds, &rs, &err)
	rs = h.Stats
	pool := h.Pool
	n := r.NumCols()
	if n == 0 {
		return h.End(nil, nil)
	}
	if err := ctx.Err(); err != nil {
		return h.End(nil, err)
	}
	var st stats
	stop := rs.Phase("sample")
	plis, built, err := partition.Singles(ctx, pool, r.Cols, r.Cards, cfg.ShardSize, cfg.Cache, cfg.Budget)
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		stop()
		return h.End(nil, err)
	}
	if cfg.Budget.Exhausted() {
		rs.Degrade(cfg.Budget.Reason())
	}
	v := validate.New(r)
	v.MaxViolations = cfg.MaxViolations
	approx := cfg.MaxViolations > 0
	full := bitset.Full(n)
	smp := newSampler(ctx, pool, r, plis, cfg)

	var tree *fdtree.Tree
	var nonFDs *sampling.NonFDSet
	startLevel := 1
	if lf := resumeLevel(cfg.Resume); lf != nil {
		// Continue a checkpointed run: the restored tree, non-FD set and
		// sampler runs are the search state; root validation and the
		// initial sampling already happened, so the run re-enters the level
		// loop at the cursor with cumulative counters.
		tree = cfg.Resume.Tree.Restore()
		nonFDs = cfg.Resume.NonFDs.Restore()
		if nonFDs == nil {
			nonFDs = sampling.NewNonFDSet(n)
		}
		v.Validations = int(lf.Validations)
		v.Invalidated = int(lf.Invalidated)
		v.RowsScanned = int(lf.RowsScannedV)
		v.ClustersRefined = int(lf.ClustersRefined)
		st = stats{
			samplingRounds: int(lf.SamplingRounds),
			comparisons:    int(lf.Comparisons),
			levels:         int(lf.Level) - 1,
		}
		rs.RowsScanned = lf.RowsScanned
		rs.PartitionsBuilt = lf.PartitionsBuilt
		startLevel = int(lf.Level)
		for i := range smp.runs {
			if i < len(lf.Sampler) {
				rec := lf.Sampler[i]
				smp.runs[i].distance = int(rec.Distance)
				smp.runs[i].efficiency = rec.Efficiency
				smp.runs[i].exhausted = rec.Exhausted
			}
		}
		runstate.WarmCache(cfg.Cache, cfg.Resume.Manifest, r.Cols, r.Cards)
		stop()
	} else {
		nonFDs = sampling.NewNonFDSet(n)
		tree = fdtree.NewWithFullRHS(n)

		// Root validation finds the constant columns and seeds non-FDs.
		// Approximate runs skip sampling entirely: one exact violating pair
		// would refute an FD the g3 bound still admits, so the tree may only
		// specialize from approximate validation outcomes.
		rootWitness := nonFDs
		if approx {
			rootWitness = nil
		}
		rootValid := v.EmptyLHS(full, rootWitness)

		if !approx {
			// Initial sampling: one distance-1 run per column, sharded
			// across the run's pool.
			for c := 0; c < n; c++ {
				_, comps, err := sampling.ClusterNeighborSampleSharded(ctx, pool, r, plis[c], 1, nonFDs, cfg.ShardSize)
				if err != nil {
					stop()
					return h.End(nil, err)
				}
				smp.runs[c].distance = 2
				st.samplingRounds++
				st.comparisons += comps
			}
		}
		stop()
		stop = rs.Phase("induct")
		inductAll(tree, full, nonFDs.Sets())
		if approx {
			if invalid := full.Difference(rootValid); !invalid.IsEmpty() {
				tree.Induct(bitset.New(n), invalid)
			}
		}
		stop()
		if cfg.TopK != nil {
			rootScore := 0
			if r.NumRows() >= 2 {
				rootScore = r.NumRows()
			}
			for a := rootValid.Next(0); a >= 0; a = rootValid.Next(a + 1) {
				rhs := bitset.New(n)
				rhs.Add(a)
				cfg.TopK.Admit(dep.FD{LHS: bitset.New(n), RHS: rhs}, rootScore)
			}
		}
	}
	processed := nonFDs.Len()

	// tick snapshots the boundary before validation level vl: levels below
	// it are fully validated and inducted, and the sampler's per-column
	// runs carry the phase-switching state, so a resumed run re-enters the
	// loop exactly at vl.
	tick := func(vl int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			f := &runstate.LevelFrontier{
				Version:         1,
				Level:           int64(vl),
				Validations:     int64(v.Validations),
				Invalidated:     int64(v.Invalidated),
				RowsScannedV:    int64(v.RowsScanned),
				ClustersRefined: int64(v.ClustersRefined),
				Comparisons:     int64(st.comparisons),
				SamplingRounds:  int64(st.samplingRounds),
				RowsScanned:     rs.RowsScanned,
				PartitionsBuilt: rs.PartitionsBuilt,
			}
			for i := range smp.runs {
				f.Sampler = append(f.Sampler, runstate.SamplerRec{
					Distance:   int64(smp.runs[i].distance),
					Efficiency: smp.runs[i].efficiency,
					Exhausted:  smp.runs[i].exhausted,
				})
			}
			return &runstate.Snapshot{
				Tree:     runstate.TreeSnapOf(tree),
				NonFDs:   runstate.NonFDSnapOf(nonFDs, n),
				Frontier: runstate.FrontierSnap{Level: f},
			}
		})
	}

	// finish folds the validator's and the sampler's measures into the
	// report and closes the run.
	finish := func(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
		rs.CandidatesValidated = int64(v.Validations)
		rs.Invalidated = int64(v.Invalidated)
		rs.RowsScanned += int64(v.RowsScanned) + 2*int64(st.comparisons)
		rs.PartitionsRefined += int64(v.ClustersRefined)
		rs.NonFDs = int64(nonFDs.Len())
		rs.Levels = int64(st.levels)
		rs.Count("sampling_rounds", int64(st.samplingRounds))
		rs.Count("sampling_comparisons", int64(st.comparisons))
		return h.End(fds, err)
	}

	for vl := startLevel; vl <= tree.MaxLevel(); vl++ {
		if err := ctx.Err(); err != nil {
			// Level vl is untouched, so this is still a boundary: park
			// it for the final Flush and Ctrl-C loses nothing.
			tick(vl, true)
			return finish(nil, err)
		}
		tick(vl, false)
		candidates := tree.NodesAtLevel(vl)
		st.levels++
		stop = rs.Phase("validate")
		validations, invalidated, invalids, err := validateLevel(ctx, pool, r, plis, candidates, v, nonFDs, &cfg)
		stop()
		if err != nil {
			return finish(nil, err)
		}

		stop = rs.Phase("induct")
		inductAll(tree, full, nonFDs.Sets()[processed:])
		// Approximate runs specialize from the validation outcomes instead
		// of witness pairs: lhs → a failing the g3 bound fails for every
		// generalization too (monotonicity), which is exactly Induct's
		// removal semantics.
		for _, li := range invalids {
			tree.Induct(li.lhs, li.invalid)
		}
		stop()
		processed = nonFDs.Len()

		// Switch to sampling when the level went badly and the sampler can
		// still contribute; its non-FDs prune the deeper levels.
		if !approx && validations > 0 &&
			float64(invalidated) > cfg.InvalidSwitchRatio*float64(validations) &&
			smp.alive() {
			stop = rs.Phase("sample")
			if err := smp.phase(nonFDs, &st); err != nil {
				stop()
				return finish(nil, err)
			}
			stop()
			stop = rs.Phase("induct")
			inductAll(tree, full, nonFDs.Sets()[processed:])
			stop()
			processed = nonFDs.Len()
		}
	}

	if err := ctx.Err(); err != nil {
		return finish(nil, err)
	}
	// Terminal boundary: the cursor is past every tree level, so resuming a
	// post-completion snapshot replays no validation and re-emits the same
	// cover.
	tick(tree.MaxLevel()+1, true)
	if cfg.TopK != nil {
		return finish(nil, nil) // the collector's FDs, in ranking order
	}
	fds = dep.SplitRHS(tree.FDs())
	dep.Sort(fds)
	return finish(fds, nil)
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
// induction. Safe to run concurrently for distinct nodes.
func validateNode(node *fdtree.Node, n int, plis []*partition.Partition, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) (levelInvalid, bool) {
	lhs := node.Path(n)
	a := cheapestAttr(lhs, plis)
	if cfg.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		if cfg.TopK.Prunable(plis[a].Size()) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	start := bitset.New(n)
	start.Add(a)
	valid := v.FD(lhs, node.RHS, plis[a], start, nonFDs)
	if cfg.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for b := valid.Next(0); b >= 0; b = valid.Next(b + 1) {
			rhs := bitset.New(n)
			rhs.Add(b)
			cfg.TopK.Admit(dep.FD{LHS: lhs, RHS: rhs}, score)
		}
	}
	if cfg.MaxViolations > 0 {
		if inv := node.RHS.Difference(valid); !inv.IsEmpty() {
			return levelInvalid{lhs: lhs, invalid: inv}, true
		}
	}
	return levelInvalid{}, false
}

// validateLevel validates one level's FD-nodes against refinements of the
// single-attribute partitions, fanning out over the pool when it is wider
// than one worker: each worker owns a validator and a local non-FD
// buffer, merged into v and nonFDs afterwards (even on cancellation, so
// partial runs report honestly). It returns the level's validation and
// invalidation counts — the inputs of the phase-switching heuristic —
// plus, on approximate runs, the per-node invalid sets in candidate order
// so induction stays deterministic for any worker count.
func validateLevel(ctx context.Context, pool *engine.Pool, r *relation.Relation, plis []*partition.Partition, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) (validations, invalidated int, invalids []levelInvalid, err error) {
	n := r.NumCols()
	approx := cfg.MaxViolations > 0
	witness := nonFDs
	if approx {
		witness = nil
	}
	workers := pool.Workers()
	if workers < 2 || len(candidates) < 4*workers {
		snap := v.Snapshot()
		for i, node := range candidates {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					validations, invalidated = v.Since(snap)
					return validations, invalidated, invalids, err
				}
			}
			if !node.IsFDNode() {
				continue
			}
			if li, ok := validateNode(node, n, plis, v, witness, cfg); ok {
				invalids = append(invalids, li)
			}
		}
		validations, invalidated = v.Since(snap)
		return validations, invalidated, invalids, nil
	}

	locals := make([]*sampling.NonFDSet, workers)
	validators := make([]*validate.Validator, workers)
	for w := 0; w < workers; w++ {
		locals[w] = sampling.NewNonFDSet(n)
		validators[w] = validate.New(r)
		validators[w].MaxViolations = cfg.MaxViolations
	}
	slots := make([]levelInvalid, len(candidates))
	found := make([]bool, len(candidates))
	err = pool.Run(ctx, len(candidates), func(w, i int) {
		node := candidates[i]
		if !node.IsFDNode() {
			return
		}
		local := locals[w]
		if approx {
			local = nil
		}
		slots[i], found[i] = validateNode(node, n, plis, validators[w], local, cfg)
	})
	for w := 0; w < workers; w++ {
		validations += validators[w].Validations
		invalidated += validators[w].Invalidated
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
	return validations, invalidated, invalids, err
}

// inductAll sorts the given agree sets descending and inducts each.
func inductAll(tree *fdtree.Tree, full bitset.Set, sets []bitset.Set) {
	sorted := append([]bitset.Set(nil), sets...)
	sampling.SortSetsDescending(sorted)
	for _, x := range sorted {
		tree.Induct(x, full.Difference(x))
	}
}

// cheapestAttr picks the LHS attribute with the smallest partition size
// ‖π_A‖ (Algorithm 6, line 16).
func cheapestAttr(lhs bitset.Set, plis []*partition.Partition) int {
	best, bestSize := -1, -1
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		size := plis[a].Size()
		if best < 0 || size < bestSize {
			best, bestSize = a, size
		}
	}
	return best
}
