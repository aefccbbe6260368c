// Package fastfds implements FastFDs (Wyss, Giannella and Robertson,
// DaWaK 2001), the heuristic-driven depth-first row-based algorithm the
// paper's related work cites alongside FDEP.
//
// FastFDs derives, from the agree sets of all tuple pairs, the difference
// sets D(r) = {R − ag(t, t′)}. For a fixed attribute A, the minimal FDs
// X → A are exactly the minimal hitting sets ("covers") of
// D_A = {D − {A} : D ∈ D(r), A ∈ D}: X must intersect every difference
// set, else some tuple pair agrees on X and differs on A. The minimal
// covers are enumerated depth-first with the greedy cardinality ordering
// of the original paper.
//
// The package is an extension beyond the paper's evaluated baselines
// (TANE, FDEP, HyFD); it is cross-checked against them in the integration
// suite.
package fastfds

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
)

// Config tunes FastFDs; the cover enumeration itself has no knobs. Of the
// shared run options, Workers fans the negative cover's pair scan out
// over blocks of outer rows of about equal pair count (the merged
// agree-set order matches the serial scan, so the derived difference sets
// are identical), and Checkpoint snapshots the difference sets and the
// per-RHS cover cursor after the negative cover and after each fully
// enumerated attribute, so a killed run resumes without redoing the
// O(r²) pair scan. FastFDs holds no partitions: Cache, Budget, TopK and
// MaxViolations are ignored.
type Config = runstate.Options

// Run returns the left-reduced cover (singleton RHSs) of the FDs holding on
// r together with the algorithm-agnostic run report, honouring ctx in the
// pair scan and the cover enumeration. On cancellation the partial report
// (with Cancelled set) is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	cfg.Cache, cfg.TopK = nil, nil // no partitions, no lattice to prune
	h := runstate.Start("fastfds", cfg)
	defer h.Recover(&fds, &rs, &err)
	rs = h.Stats
	n := r.NumCols()
	if n == 0 {
		return h.End(nil, nil)
	}

	var diffSets []bitset.Set
	var out []dep.FD
	startAttr := 0
	if f := resumeFrontier(cfg.Resume); f != nil {
		// Continue a checkpointed run: the persisted difference sets make
		// redoing the O(r²) pair scan unnecessary.
		diffSets = f.Diff
		out = append(out, f.Out...)
		startAttr = int(f.NextAttr)
		rs.RowsScanned = f.RowsScanned
		rs.NonFDs = f.NonFDs
	} else {
		stop := rs.Phase("negative-cover")
		neg, err := sampling.NegativeCover(ctx, h.Pool, r)
		stop()
		if err != nil {
			return h.End(nil, err)
		}
		nrows := int64(r.NumRows())
		rs.RowsScanned += nrows * (nrows - 1)
		rs.NonFDs = int64(neg.Len())
		full := bitset.Full(n)

		// Difference sets: complements of the (deduplicated) agree sets.
		diffSets = make([]bitset.Set, 0, neg.Len())
		for _, ag := range neg.Sets() {
			diffSets = append(diffSets, full.Difference(ag))
		}
	}

	// tick snapshots the cover cursor: attributes below next are fully
	// enumerated, and the difference sets stand in for the pair scan.
	tick := func(next int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			f := &runstate.FastFDsFrontier{
				Version:     1,
				NextAttr:    int64(next),
				RowsScanned: rs.RowsScanned,
				NonFDs:      rs.NonFDs,
			}
			for _, d := range diffSets {
				f.Diff = append(f.Diff, d.Clone())
			}
			for _, fd := range out {
				f.Out = append(f.Out, fd.Clone())
			}
			return &runstate.Snapshot{Frontier: runstate.FrontierSnap{FastFDs: f}}
		})
	}

	stop := rs.Phase("covers")
	for a := startAttr; a < n && err == nil; a++ {
		if err = ctx.Err(); err != nil {
			// Attribute a is untouched, so this is still a boundary:
			// park it for the final Flush and Ctrl-C loses nothing.
			tick(a, true)
			break
		}
		tick(a, false)
		var covers []bitset.Set
		if covers, err = coversFor(ctx, n, diffSets, a); err != nil {
			// A cancelled enumeration emitted no covers for a; the
			// boundary is unchanged.
			tick(a, true)
			break
		}
		rhs := bitset.New(n)
		rhs.Add(a)
		for _, x := range covers {
			out = append(out, dep.FD{LHS: x, RHS: rhs.Clone()})
		}
	}
	stop()
	if err != nil {
		return h.End(nil, err)
	}
	// Terminal boundary: resuming a post-completion snapshot enumerates no
	// covers and re-emits the same cover.
	tick(n, true)
	dep.Sort(out)
	return h.End(out, nil)
}

// resumeFrontier extracts a snapshot's FastFDs frontier, nil when the run
// starts cold or the snapshot belongs to another algorithm.
func resumeFrontier(s *runstate.Snapshot) *runstate.FastFDsFrontier {
	if s == nil || s.Frontier.FastFDs == nil {
		return nil
	}
	return s.Frontier.FastFDs
}

// coversFor enumerates the minimal covers of D_A.
func coversFor(ctx context.Context, n int, diffSets []bitset.Set, a int) ([]bitset.Set, error) {
	var dA []bitset.Set
	for _, d := range diffSets {
		if !d.Contains(a) {
			continue
		}
		m := d.Clone()
		m.Remove(a)
		if m.IsEmpty() {
			// A tuple pair differs on A alone: nothing can determine A.
			return nil, nil
		}
		dA = append(dA, m)
	}
	dA = minimizeSets(dA)
	if len(dA) == 0 {
		// No pair differs on A while agreeing elsewhere: ∅ → A holds
		// (A is constant, or the relation has < 2 rows).
		return []bitset.Set{bitset.New(n)}, nil
	}

	e := &enumerator{n: n, ctx: ctx, dA: dA, order: globalOrder(n, dA)}
	e.search(dA, bitset.New(n), -1)
	return e.covers, e.err
}

// globalOrder fixes the branching order: attributes covering more
// difference sets come first (the FastFDs cardinality heuristic). Covers
// are enumerated as ascending sequences in this order, so each candidate
// set is visited exactly once.
func globalOrder(n int, dA []bitset.Set) []int {
	counts := make([]int, n)
	for _, d := range dA {
		for b := d.Next(0); b >= 0; b = d.Next(b + 1) {
			counts[b]++
		}
	}
	order := make([]int, 0, n)
	for b := 0; b < n; b++ {
		if counts[b] > 0 {
			order = append(order, b)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	return order
}

// minimizeSets keeps only the minimal difference sets: a hitting set for
// the minimal sets hits every superset for free.
func minimizeSets(sets []bitset.Set) []bitset.Set {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Count() < sets[j].Count() })
	var out []bitset.Set
	for _, s := range sets {
		dominated := false
		for _, m := range out {
			if m.IsSubsetOf(s) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	return out
}

type enumerator struct {
	n      int
	ctx    context.Context
	dA     []bitset.Set
	order  []int
	covers []bitset.Set
	err    error
	steps  int
}

// search extends the partial cover x with attributes after position
// lastIdx of the global order until every remaining difference set is hit.
// Each pick must hit at least one remaining set, which every minimal cover
// satisfies along its order-sorted pick sequence (each attribute uniquely
// hits some set that survives the earlier picks).
func (e *enumerator) search(remaining []bitset.Set, x bitset.Set, lastIdx int) {
	if e.err != nil {
		return
	}
	if e.steps++; e.steps%1024 == 0 {
		if err := e.ctx.Err(); err != nil {
			e.err = err
			return
		}
	}
	if len(remaining) == 0 {
		if e.isMinimal(x) {
			e.covers = append(e.covers, x.Clone())
		}
		return
	}
	for idx := lastIdx + 1; idx < len(e.order); idx++ {
		b := e.order[idx]
		rest := remaining[:0:0]
		for _, d := range remaining {
			if !d.Contains(b) {
				rest = append(rest, d)
			}
		}
		if len(rest) == len(remaining) {
			continue // b hits nothing remaining: dead pick
		}
		x.Add(b)
		e.search(rest, x, idx)
		x.Remove(b)
	}
}

// isMinimal applies the exact minimal-hitting-set certificate: every
// attribute of x must be the only element of x inside some difference set.
// The ordered DFS can reach non-minimal covers (an early pick may be
// subsumed by later ones), so leaves are filtered here.
func (e *enumerator) isMinimal(x bitset.Set) bool {
	for a := x.Next(0); a >= 0; a = x.Next(a + 1) {
		unique := false
		for _, d := range e.dA {
			if !d.Contains(a) {
				continue
			}
			hits := 0
			for b := x.Next(0); b >= 0 && hits < 2; b = x.Next(b + 1) {
				if d.Contains(b) {
					hits++
				}
			}
			if hits == 1 {
				unique = true
				break
			}
		}
		if !unique {
			return false
		}
	}
	return true
}
