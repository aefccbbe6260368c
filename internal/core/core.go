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
// The level loop (Hybrid) is HyFD's too: HyFD runs it with its own Step,
// the switch into its progressive sampler, in place of the DDM refresh.
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
			if !attrs.Contains(b) {
				job.Attrs = append(job.Attrs, b)
			}
		}
		jobs[k] = job
	}
	parts, err := partition.RefineBatch(ctx, pool, m.r.Cols, m.r.Cards, jobs)
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
// the algorithm-agnostic run report: the hybrid level loop with the DDM
// refresh as its step. On cancellation the partial report (with Cancelled
// set) is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) ([]dep.FD, *engine.RunStats, error) {
	cfg.fillDefaults()
	l := new(hybrid)
	return l.run(ctx, r, "dhyfd", cfg.Options, &refresh{l: l, ratio: cfg.Ratio})
}

// refresh is DHyFD's step: after each level, the efficiency–inefficiency
// decision of Algorithm 6 (lines 21–27) and the DDM refresh it triggers.
type refresh struct {
	l            *hybrid
	ratio        float64
	refinements  int // DDM refreshes (controlled-level advances)
	peakDynRows  int // max Σ‖π‖ held by the DDM at once (memory proxy)
	peakDynCount int // max number of dynamic partitions held at once
}

func (s *refresh) Start(_ context.Context, h *runstate.Harness, _ []*partition.Partition, resume *runstate.LevelFrontier) {
	if budget := s.l.opts.Budget; budget.Exhausted() {
		h.Stats.Degrade(budget.Reason() + "; DDM refreshes disabled")
	}
	if resume != nil {
		s.refinements = int(resume.Refinements)
		s.peakDynRows = int(resume.PeakDynRows)
		s.peakDynCount = int(resume.PeakDynCount)
	}
}

func (s *refresh) AfterLevel(ctx context.Context, _ *sampling.NonFDSet, _, _ int) (int, error) {
	l := s.l
	var reusables []*fdtree.Node
	for _, node := range l.candidates {
		if !node.Pruned && node.HasLiveChildren() {
			reusables = append(reusables, node)
		}
	}
	higher := l.tree.CountFDs() - l.numFDs
	if l.level <= 1 || l.total == 0 || len(reusables) == 0 || higher <= 0 ||
		EfficiencyInefficiencyRatio(l.numNewFDs, l.total, len(reusables), higher) <= s.ratio {
		return 0, nil
	}
	rs := l.h.Stats
	// Refreshing trades memory for time; once the budget is exhausted the
	// trade is off — validation continues from the partitions already
	// held, which stays sound.
	if budget := l.opts.Budget; budget.Exhausted() {
		rs.Degrade(budget.Reason() + "; DDM refreshes disabled")
		return 0, nil
	}
	l.tree.ControlledLevel = l.level
	stop := rs.Phase("refine")
	err := l.m.update(ctx, l.h.Pool, reusables)
	stop()
	if err != nil {
		return 0, err
	}
	s.refinements++
	rs.PartitionsBuilt += int64(len(reusables))
	if rows := l.m.rows(); rows > s.peakDynRows {
		s.peakDynRows = rows
	}
	if len(l.m.slots) > s.peakDynCount {
		s.peakDynCount = len(l.m.slots)
	}
	return 0, nil
}

func (s *refresh) Save(f *runstate.LevelFrontier) {
	f.Refinements = int64(s.refinements)
	f.PeakDynRows = int64(s.peakDynRows)
	f.PeakDynCount = int64(s.peakDynCount)
}

func (s *refresh) Fold(rs *engine.RunStats) {
	rs.Count("initial_non_fds", int64(s.l.initialNonFDs))
	rs.Count("ddm_refreshes", int64(s.refinements))
	rs.Count("peak_dyn_partitions", int64(s.peakDynCount))
	rs.Count("peak_dyn_rows", int64(s.peakDynRows))
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
