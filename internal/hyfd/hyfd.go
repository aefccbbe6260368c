// Package hyfd implements the hybrid FD discovery algorithm of Papenbrock
// and Naumann (SIGMOD 2016), the strongest baseline of the paper.
//
// HyFD alternates two phases. The sampling phase compares likely-similar
// tuple pairs — sorted-neighborhood runs over the clusters of the
// single-attribute partitions, with a per-column efficiency queue that
// always grows the most productive run — and inducts the resulting non-FDs
// into an FD-tree. The validation phase checks the tree level by level
// against the data; when a level invalidates more than a fixed fraction
// of its candidates, control returns to the (cheaper) sampler to prune
// deeper levels before they are reached.
//
// Following the paper (Section V-B), this implementation uses synergized
// induction on extended FD-trees, which already improves on the published
// HyFD numbers. It runs DHyFD's level loop (core.Hybrid) with that switch
// as its step: the loop's initial sampling is the sampler's first round,
// and the DDM is never refreshed, so every FD-node validates from its
// cheapest single-attribute partition; reusing refinements across levels
// is exactly what DHyFD adds. The validation phase runs on the shared
// engine.Pool when Config.Workers is above one, and so does sampling.
package hyfd

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
)

// Config tunes HyFD; the algorithm has no knobs beyond the shared run
// options. Workers fans validation out over FD-nodes and the initial
// sample over the columns (merged byte-identically, so every round's
// efficiency matches the serial pass); a progressive round samples one
// column on the calling goroutine, and induction is sequential.
// HyFD holds nothing but the single-attribute partitions, so Budget
// exhaustion cannot change its behaviour and only flags the run
// Degraded; MaxViolations > 0 disables sampling, since exact violating
// pairs must not refute approximately valid FDs.
type Config = runstate.Options

// The phase-switching thresholds of the experiments.
var (
	// invalidSwitchRatio: after a validation level, switch to sampling
	// when invalidated/validated exceeds this fraction.
	invalidSwitchRatio = 0.01
	// samplingEfficiency: a sampling phase keeps growing runs while the
	// best run yields at least this many new non-FDs per comparison.
	samplingEfficiency = 0.01
)

// stats holds the sampler's measures of a run.
type stats struct {
	samplingRounds int // sorted-neighborhood runs executed
	comparisons    int // tuple pairs compared while sampling
}

// sampler holds one sorted-neighborhood run per column, indexed by
// column: the next window distance, the efficiency of the last window
// (optimistically 1 until measured) and whether the run is exhausted. The
// records are the sampler's checkpoint state as they stand.
type sampler struct {
	ctx   context.Context
	pool  *engine.Pool
	r     *relation.Relation
	order *sampling.RowOrder // shared by every round; a resumed run's first round builds it
	plis  []*partition.Partition
	runs  []runstate.SamplerRec
	cfg   Config
}

func newSampler(ctx context.Context, pool *engine.Pool, r *relation.Relation, order *sampling.RowOrder, plis []*partition.Partition, cfg Config) *sampler {
	s := &sampler{ctx: ctx, pool: pool, r: r, order: order, plis: plis, cfg: cfg}
	for _, p := range plis {
		s.runs = append(s.runs, runstate.SamplerRec{Distance: 1, Efficiency: 1, Exhausted: p.IsUnique()})
	}
	return s
}

// step executes the most promising run. It reports new non-FDs,
// comparisons, and whether any run was executed at all. The run samples
// its one column on the calling goroutine, so the efficiency trajectory
// is the serial pass's at every width.
func (s *sampler) step(dst *sampling.NonFDSet) (newNonFDs, comparisons int, ran bool, err error) {
	best := -1
	for i := range s.runs {
		if s.runs[i].Exhausted {
			continue
		}
		if best < 0 || s.runs[i].Efficiency > s.runs[best].Efficiency {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false, nil
	}
	ru := &s.runs[best]
	if s.order == nil {
		// A resumed run starts without the cold run's order.
		s.order = sampling.NewRowOrder(s.r)
	}
	newN, comps, err := sampling.ClusterNeighborSample(s.ctx, s.pool, s.r, s.order, s.plis[best:best+1], int(ru.Distance), dst)
	if err != nil {
		return 0, 0, false, err
	}
	ru.Distance++
	if comps == 0 {
		ru.Exhausted = true
		ru.Efficiency = 0
	} else {
		ru.Efficiency = float64(newN) / float64(comps)
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
			if !s.runs[i].Exhausted && s.runs[i].Efficiency > bestEff {
				bestEff = s.runs[i].Efficiency
			}
		}
		if !first && bestEff < samplingEfficiency {
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
		if !s.runs[i].Exhausted {
			return true
		}
	}
	return false
}

// Run returns the left-reduced cover of the FDs holding on r together with
// the algorithm-agnostic run report: the hybrid level loop with the
// sampler switch as its step, honouring ctx between validation batches and
// sampling runs. On cancellation the partial report (with Cancelled set)
// is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) ([]dep.FD, *engine.RunStats, error) {
	return core.Hybrid(ctx, r, "hyfd", cfg, &switcher{r: r, cfg: cfg})
}

// switcher is HyFD's step of the level loop: after a level that
// invalidated more than invalidSwitchRatio of its checks, a sampling
// phase whose non-FDs prune the deeper levels before they are reached.
type switcher struct {
	r   *relation.Relation
	cfg Config
	rs  *engine.RunStats
	smp *sampler
	st  stats
}

func (s *switcher) Start(ctx context.Context, h *runstate.Harness, singles []*partition.Partition, order *sampling.RowOrder, resume *runstate.LevelFrontier) {
	if s.cfg.Budget.Exhausted() {
		h.Stats.Degrade(s.cfg.Budget.Reason())
	}
	s.rs = h.Stats
	s.smp = newSampler(ctx, h.Pool, s.r, order, singles, s.cfg)
	switch {
	case resume != nil:
		s.st.samplingRounds = int(resume.SamplingRounds)
		copy(s.smp.runs, resume.Sampler)
	case s.cfg.MaxViolations == 0:
		// The loop's initial sampling is the sampler's first round: one
		// distance-1 run per column.
		for i := range s.smp.runs {
			s.smp.runs[i].Distance = 2
		}
		s.st.samplingRounds = len(s.smp.runs)
	}
}

// AfterLevel switches to sampling when the level went badly and the
// sampler can still contribute; approximate runs never sample.
func (s *switcher) AfterLevel(_ context.Context, nonFDs *sampling.NonFDSet, validations, invalidated int) (int, error) {
	if s.cfg.MaxViolations > 0 || validations == 0 ||
		float64(invalidated) <= invalidSwitchRatio*float64(validations) || !s.smp.alive() {
		return 0, nil
	}
	before := s.st.comparisons
	stop := s.rs.Phase("sample")
	err := s.smp.phase(nonFDs, &s.st)
	stop()
	return s.st.comparisons - before, err
}

func (s *switcher) Save(f *runstate.LevelFrontier) {
	f.SamplingRounds = int64(s.st.samplingRounds)
	f.Sampler = slices.Clone(s.smp.runs)
}

func (s *switcher) Fold(rs *engine.RunStats) {
	rs.Count("sampling_rounds", int64(s.st.samplingRounds))
}
