// Package core implements DHyFD, the dynamic hybrid FD discovery algorithm
// that is the paper's primary contribution (Section IV).
//
// DHyFD follows the column-based approach over an extended FD-tree but
// uses a dynamic data manager (DDM) as a row-based technique whenever many
// FDs are likely to be valid. The DDM maintains an array of stripped
// partitions rooted at the current controlled level of the tree; node ids
// index that array, so validating the FDs of deeper levels refines an
// already-computed partition instead of starting from single-attribute
// partitions every time (HyFD's behaviour).
//
// The decision to spend memory on refreshed partitions is taken per
// validation level by the efficiency–inefficiency ratio: efficiency is the
// fraction of the level's FDs that turned out valid; inefficiency is the
// fraction of reusable nodes (validated nodes with live children) over the
// FDs still waiting at higher levels. A high ratio means validated
// partitions will be shared by many descendants, so refinement pays off
// (Section IV-G; the experiments of Figure 6 fix the threshold at 3).
//
// Sampling happens exactly once, before the main loop (sorted-neighborhood
// pair selection over the single-attribute partitions), and every FD
// validation doubles as further sampling: witness pairs of invalid FDs
// are genuine non-FDs fed back into synergized induction.
//
// Both validation hot paths run on the shared engine.Pool: per-level
// candidate validation fans out over per-worker validators, and DDM
// refreshes batch their partition refinements through
// partition.RefineBatch. Workers: 1 keeps the paper's serial behaviour.
package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/validate"
)

// Config tunes DHyFD. The zero value is the paper's tuning. The shared
// run options apply as follows: Workers parallelizes level validation and
// DDM refreshes (induction stays sequential); Budget exhaustion stops DDM
// refreshes, falling back to single-attribute partitions, which keeps the
// cover complete; Cache feeds refreshes from the longest cached prefix of
// a node's path and publishes the refreshed partitions; TopK scores by the
// validator's ‖π_LHS‖ and skips nodes whose smallest single-attribute
// partition cannot beat the threshold; MaxViolations > 0 disables pair
// sampling, since exact violating pairs must not refute approximately
// valid FDs; a Resume rebuilds the DDM cold, which is slower but leaves
// the cover unchanged.
type Config struct {
	runstate.Options
	// Ratio is the efficiency–inefficiency threshold above which the DDM
	// refreshes its partitions (Algorithm 6, line 26). 0 selects the
	// paper's 3.0 (Figure 6). Set it very large to disable refreshes
	// entirely, which degenerates DHyFD into a validate-from-singletons
	// hybrid.
	Ratio float64
}

func (c *Config) fillDefaults() {
	if c.Ratio == 0 {
		c.Ratio = 3.0
	}
}

// stats holds the DHyFD-specific measures of a run; finish folds them into
// the run report's counters.
type stats struct {
	initialNonFDs int // distinct agree sets from the one-shot sampling
	comparisons   int // tuple pairs compared by the one-shot sampling
	levels        int // validation levels processed
	refinements   int // DDM refreshes (controlled-level advances)
	peakDynRows   int // max Σ‖π‖ held by the DDM at once (memory proxy)
	peakDynCount  int // max number of dynamic partitions held at once
}

// ddm is the dynamic data manager: pre-computed single-attribute stripped
// partitions plus one array of dynamic partitions per controlled-level
// epoch. Node ids below NumCols index singles; ids >= NumCols index the
// dynamic array, valid only while the node's epoch matches (stale ids are
// the paper's "inconsistent" ids and fall back to singles).
type ddm struct {
	r       *relation.Relation
	singles []*partition.Partition
	epoch   int
	slots   []dynPartition
	budget  *partition.Budget
	cache   *partition.Cache
}

type dynPartition struct {
	part  *partition.Partition
	attrs bitset.Set
}

func newDDM(ctx context.Context, pool *engine.Pool, r *relation.Relation, cfg *Config) (*ddm, int, error) {
	m := &ddm{
		r:      r,
		epoch:  1,
		budget: cfg.Budget,
		cache:  cfg.Cache,
	}
	singles, built, err := partition.Singles(ctx, pool, r.Cols, r.Cards, cfg.ShardSize, cfg.Cache, cfg.Budget)
	m.singles = singles
	return m, built, err
}

// partitionFor returns a stripped partition π_X′ with X′ ⊆ lhs for the
// node, preferring the node's dynamic partition when its id is consistent.
// Nodes with default or stale ids get the cheapest single-attribute
// partition of their path (Algorithm 6, lines 15–16) and their id is reset
// accordingly.
func (m *ddm) partitionFor(node *fdtree.Node, lhs bitset.Set) (*partition.Partition, bitset.Set) {
	n := len(m.singles)
	if node.ID >= n && node.Epoch == m.epoch {
		slot := m.slots[node.ID-n]
		if slot.attrs.IsSubsetOf(lhs) {
			return slot.part, slot.attrs
		}
	}
	best, bestSize := -1, -1
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		if size := m.singles[a].Size(); best < 0 || size < bestSize {
			best, bestSize = a, size
		}
	}
	node.ID, node.Epoch = best, 0
	attrs := bitset.New(n)
	attrs.Add(best)
	return m.singles[best], attrs
}

// update implements Algorithm 3: a new dynamic array is built from the
// reusable nodes at the new controlled level. Each node's partition starts
// from its consistent dynamic partition (or its own singleton) and is
// refined by the missing path attributes — refinements run as one
// partition.RefineBatch on the caller's worker pool, since the jobs
// are independent (and the pool's retry policy supervises them); the node
// then receives the new slot id and propagates it to its descendants. On
// cancellation the DDM is left untouched (the old epoch stays consistent)
// and ctx's error is returned.
func (m *ddm) update(ctx context.Context, pool *engine.Pool, reusables []*fdtree.Node) error {
	if err := faults.Hit(faults.DDMRefresh); err != nil {
		return err
	}
	n := len(m.singles)
	jobs := make([]partition.RefineJob, len(reusables))
	lhss := make([]bitset.Set, len(reusables))
	for k, node := range reusables {
		lhs := node.Path(n)
		lhss[k] = lhs
		var p *partition.Partition
		var attrs bitset.Set
		if node.ID >= n && node.Epoch == m.epoch {
			slot := m.slots[node.ID-n]
			if slot.attrs.IsSubsetOf(lhs) {
				p, attrs = slot.part, slot.attrs
			}
		}
		if p == nil {
			// No consistent slot: prefer the longest cached prefix of
			// the path over restarting from a single.
			if cp, cattrs := m.cache.LongestPrefix(lhs); cp != nil {
				p, attrs = cp, cattrs
			} else {
				a := node.Attr
				p, attrs = m.singles[a], bitset.FromAttrs(n, a)
			}
		}
		job := partition.RefineJob{Part: p}
		for b := lhs.Next(0); b >= 0; b = lhs.Next(b + 1) {
			if attrs.Contains(b) {
				continue
			}
			job.Cols = append(job.Cols, m.r.Cols[b])
			job.Cards = append(job.Cards, m.r.Cards[b])
		}
		jobs[k] = job
	}
	parts, err := partition.RefineBatch(ctx, pool, jobs)
	if err != nil {
		return err
	}
	m.epoch++
	newSlots := make([]dynPartition, 0, len(reusables))
	for k, node := range reusables {
		node.ID = n + len(newSlots)
		node.Epoch = m.epoch
		newSlots = append(newSlots, dynPartition{part: parts[k], attrs: lhss[k]})
		fdtree.PropagateID(node)
		m.budget.Charge(parts[k])
		m.cache.Put(lhss[k], parts[k])
	}
	// The replaced epoch's partitions are garbage now; return their bytes.
	// A reused (unrefined) slot aliases its old partition, so the charge
	// above and this release net out for it.
	for _, s := range m.slots {
		m.budget.Release(s.part)
	}
	m.slots = newSlots
	return nil
}

// rows returns Σ‖π‖ over the dynamic array, the memory proxy of Figure 7.
func (m *ddm) rows() int {
	total := 0
	for _, s := range m.slots {
		total += s.part.Size()
	}
	return total
}

// Run returns the left-reduced cover of the FDs holding on r together with
// the algorithm-agnostic run report, honouring ctx between validation
// batches. On cancellation the partial report (with Cancelled set) is
// returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	cfg.fillDefaults()
	h := runstate.Start("dhyfd", cfg.Options)
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
	m, built, err := newDDM(ctx, pool, r, &cfg)
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		stop()
		return h.End(nil, err)
	}
	if cfg.Budget.Exhausted() {
		rs.Degrade(cfg.Budget.Reason() + "; DDM refreshes disabled")
	}
	v := validate.New(r)
	v.MaxViolations = cfg.MaxViolations
	approx := cfg.MaxViolations > 0
	full := bitset.Full(n)

	var tree *fdtree.Tree
	var nonFDs *sampling.NonFDSet
	var numFDs int
	startLevel := 1
	if lf := resumeLevel(cfg.Resume); lf != nil {
		// Continue a checkpointed run: the restored tree and non-FD set are
		// the search state proper; sampling and root validation already
		// happened, so the run re-enters the level loop at the cursor. The
		// validator's exported counters and the driver's measures are
		// assigned from the snapshot — finish() reads them, so the resumed
		// report is cumulative.
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
			initialNonFDs: int(lf.InitialNonFDs),
			comparisons:   int(lf.Comparisons),
			levels:        int(lf.Level) - 1,
			refinements:   int(lf.Refinements),
			peakDynRows:   int(lf.PeakDynRows),
			peakDynCount:  int(lf.PeakDynCount),
		}
		rs.RowsScanned = lf.RowsScanned
		rs.PartitionsBuilt = lf.PartitionsBuilt
		numFDs = int(lf.NumFDs)
		startLevel = int(lf.Level)
		if err := h.WarmCache(ctx, r); err != nil {
			stop()
			return h.End(nil, err)
		}
		stop()
	} else {
		tree = fdtree.NewWithFullRHS(n)
		tree.ControlledLevel = 1

		// One-shot sampling plus root validation (Algorithm 6, lines 5–6).
		// Approximate runs skip sampling entirely: one exact violating pair
		// would refute an FD the g3 bound still admits, so the tree may only
		// specialize from approximate validation outcomes.
		nonFDs = sampling.NewNonFDSet(n)
		rootWitness := nonFDs
		if approx {
			rootWitness = nil
		} else {
			for c := 0; c < n; c++ {
				_, comps, err := sampling.ClusterNeighborSample(ctx, pool, r, m.singles[c], 1, nonFDs, cfg.ShardSize)
				if err != nil {
					stop()
					return h.End(nil, err)
				}
				st.comparisons += comps
			}
			rs.RowsScanned += 2 * int64(st.comparisons)
		}
		rootValid := v.EmptyLHS(full, rootWitness)
		st.initialNonFDs = nonFDs.Len()
		stop()
		stop = rs.Phase("induct")
		tree.InductAll(nonFDs.Sets())
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

		// The surviving root RHS attributes are the validated FDs ∅ → A.
		numFDs = tree.Root().RHSCount()
	}
	processed := nonFDs.Len()

	// tick snapshots the boundary before validation level vl: levels below
	// it are fully validated and inducted into the tree, so a resumed run
	// re-enters the loop exactly at vl.
	tick := func(vl int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			return &runstate.Snapshot{
				Tree:   runstate.TreeSnapOf(tree),
				NonFDs: runstate.NonFDSnapOf(nonFDs, n),
				Frontier: runstate.FrontierSnap{Level: &runstate.LevelFrontier{
					Version:         1,
					Level:           int64(vl),
					NumFDs:          int64(numFDs),
					Validations:     int64(v.Validations),
					Invalidated:     int64(v.Invalidated),
					RowsScannedV:    int64(v.RowsScanned),
					ClustersRefined: int64(v.ClustersRefined),
					InitialNonFDs:   int64(st.initialNonFDs),
					Comparisons:     int64(st.comparisons),
					Refinements:     int64(st.refinements),
					PeakDynRows:     int64(st.peakDynRows),
					PeakDynCount:    int64(st.peakDynCount),
					RowsScanned:     rs.RowsScanned,
					PartitionsBuilt: rs.PartitionsBuilt,
				}},
			}
		})
	}

	// finish folds the validator's and the driver's measures into the
	// report and closes the run.
	finish := func(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
		rs.CandidatesValidated = int64(v.Validations)
		rs.Invalidated = int64(v.Invalidated)
		rs.RowsScanned += int64(v.RowsScanned)
		rs.PartitionsRefined += int64(v.ClustersRefined)
		rs.NonFDs = int64(nonFDs.Len())
		rs.Levels = int64(st.levels)
		rs.Count("initial_non_fds", int64(st.initialNonFDs))
		rs.Count("sampling_comparisons", int64(st.comparisons))
		rs.Count("ddm_refreshes", int64(st.refinements))
		rs.Count("peak_dyn_partitions", int64(st.peakDynCount))
		rs.Count("peak_dyn_rows", int64(st.peakDynRows))
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

		total := 0
		for _, node := range candidates {
			total += node.RHSCount()
		}
		stop = rs.Phase("validate")
		invalids, err := validateLevel(ctx, pool, r, m, candidates, v, nonFDs, &cfg)
		stop()
		if err != nil {
			return finish(nil, err)
		}
		stop = rs.Phase("induct")
		tree.InductAll(nonFDs.Sets()[processed:])
		// Approximate runs specialize from the validation outcomes instead
		// of witness pairs: lhs → a failing the g3 bound fails for every
		// generalization too (monotonicity), which is exactly Induct's
		// removal semantics.
		for _, li := range invalids {
			tree.Induct(li.lhs, li.invalid)
		}
		stop()
		processed = nonFDs.Len()

		numNewFDs := 0
		for _, node := range candidates {
			if node.Pruned {
				continue
			}
			numNewFDs += node.RHSCount()
		}
		numFDs += numNewFDs

		var reusables []*fdtree.Node
		for _, node := range candidates {
			if !node.Pruned && node.HasLiveChildren() {
				reusables = append(reusables, node)
			}
		}

		// Efficiency–inefficiency decision (Algorithm 6, lines 21–27).
		higher := tree.CountFDs() - numFDs
		if vl > 1 && total > 0 && len(reusables) > 0 && higher > 0 {
			if EfficiencyInefficiencyRatio(numNewFDs, total, len(reusables), higher) > cfg.Ratio {
				// Refreshing trades memory for time; once the budget is
				// exhausted the trade is off — validation continues from
				// the partitions already held, which stays sound.
				if cfg.Budget.Exhausted() {
					rs.Degrade(cfg.Budget.Reason() + "; DDM refreshes disabled")
					continue
				}
				tree.ControlledLevel = vl
				stop = rs.Phase("refine")
				err := m.update(ctx, pool, reusables)
				stop()
				if err != nil {
					return finish(nil, err)
				}
				st.refinements++
				rs.PartitionsBuilt += int64(len(reusables))
				if rows := m.rows(); rows > st.peakDynRows {
					st.peakDynRows = rows
				}
				if len(m.slots) > st.peakDynCount {
					st.peakDynCount = len(m.slots)
				}
			}
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

// EfficiencyInefficiencyRatio computes the paper's Section IV-G measure:
// efficiency — valid FDs over all FDs at the validation level — divided by
// inefficiency — reusable nodes over the FDs residing in higher levels.
// Example 5 of the paper: 1 valid of 1 FD with 2 reusable nodes over 5
// pending FDs gives (1/1)/(2/5) = 2.5; 1 of 2 with 2 reusables over 3
// pending gives (1/2)/(2/3) = 0.75.
func EfficiencyInefficiencyRatio(validFDs, totalFDs, reusableNodes, higherFDs int) float64 {
	efficiency := float64(validFDs) / float64(totalFDs)
	inefficiency := float64(reusableNodes) / float64(higherFDs)
	return efficiency / inefficiency
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
func validateNode(node *fdtree.Node, n int, m *ddm, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) (levelInvalid, bool) {
	lhs := node.Path(n)
	if cfg.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		bound := -1
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			if s := m.singles[a].Size(); bound < 0 || s < bound {
				bound = s
			}
		}
		if bound >= 0 && cfg.TopK.Prunable(bound) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	p, attrs := m.partitionFor(node, lhs)
	valid := v.FD(lhs, node.RHS, p, attrs, nonFDs)
	if cfg.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for a := valid.Next(0); a >= 0; a = valid.Next(a + 1) {
			rhs := bitset.New(n)
			rhs.Add(a)
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

// validateLevel validates the FD-nodes among candidates against their DDM
// partitions, collecting witness non-FDs (exact runs) or per-node invalid
// sets (approximate runs; returned in candidate order so induction stays
// deterministic for any worker count). With a pool wider than one the
// candidates fan out over engine.Pool workers: each worker owns a
// validator and a local non-FD buffer, merged into v and nonFDs after the
// level. The DDM is read-only during a level except for per-node id
// resets, which are safe because every node is processed by exactly one
// worker. Counters are merged even on cancellation so partial runs report
// honestly.
func validateLevel(ctx context.Context, pool *engine.Pool, r *relation.Relation, m *ddm, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) ([]levelInvalid, error) {
	n := r.NumCols()
	approx := cfg.MaxViolations > 0
	witness := nonFDs
	if approx {
		witness = nil
	}
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
			if li, ok := validateNode(node, n, m, v, witness, cfg); ok {
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
		validators[w].MaxViolations = cfg.MaxViolations
	}
	slots := make([]levelInvalid, len(candidates))
	found := make([]bool, len(candidates))
	err := pool.Run(ctx, len(candidates), func(w, i int) {
		node := candidates[i]
		if !node.IsFDNode() {
			return
		}
		local := locals[w]
		if approx {
			local = nil
		}
		slots[i], found[i] = validateNode(node, n, m, validators[w], local, cfg)
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
