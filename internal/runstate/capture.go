package runstate

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/topk"
)

// Bridges between the live structures drivers checkpoint and the snapshot
// sections. The *Of direction clones everything it touches (snapshots may
// be taken while the driver keeps mutating); Restore/Apply rebuild fresh
// live structures the resumed driver owns outright.

// StatsSnapOf captures the resumable portion of a run report: accumulated
// phase times and cumulative elapsed wall time. Cache counters are the
// driver's to fill — they come from the cache delta, not from rs.
func StatsSnapOf(rs *engine.RunStats) StatsSnap {
	s := StatsSnap{Version: 1, ElapsedNanos: int64(rs.SinceStart())}
	for _, p := range rs.Phases {
		s.Phases = append(s.Phases, PhaseRec{Name: p.Name, Nanos: int64(p.Duration)})
	}
	return s
}

// Apply seeds a fresh run report with the snapshot's accumulated phase
// times, elapsed base, and cache-traffic bases, so the resumed run reports
// the logical run's cumulative cost.
func (s StatsSnap) Apply(rs *engine.RunStats) {
	for _, p := range s.Phases {
		rs.AddPhase(p.Name, time.Duration(p.Nanos))
	}
	rs.AddElapsed(time.Duration(s.ElapsedNanos))
	rs.CacheHits += s.CacheHits
	rs.CacheMisses += s.CacheMisses
	rs.CacheEvictions += s.CacheEvicts
}

// TreeSnapOf captures an FD-tree as its FD-node triples. Nil in, nil out.
func TreeSnapOf(t *fdtree.Tree) *TreeSnap {
	if t == nil {
		return nil
	}
	s := &TreeSnap{
		Version:         1,
		NumAttrs:        int64(t.NumAttrs()),
		ControlledLevel: int64(t.ControlledLevel),
	}
	t.ForEachFD(func(lhs bitset.Set, n *fdtree.Node) {
		s.Nodes = append(s.Nodes, TreeNodeRec{
			LHS:    lhs.Clone(),
			RHS:    n.RHS.Clone(),
			Pruned: n.Pruned,
		})
	})
	return s
}

// Restore rebuilds an FD-tree from the triples. Node IDs take the
// defaults AddFD assigns under the restored controlled level; the DDM the
// ids index is rebuilt separately (or dropped — partitionFor falls back to
// single-attribute refinement on a stale id), so defaults are correct.
func (s *TreeSnap) Restore() *fdtree.Tree {
	if s == nil {
		return nil
	}
	t := fdtree.New(int(s.NumAttrs))
	t.ControlledLevel = int(s.ControlledLevel)
	for _, n := range s.Nodes {
		node := t.AddFD(n.LHS, n.RHS)
		node.Pruned = n.Pruned
	}
	return t
}

// NonFDSnapOf captures the agree-set collection in insertion order. Nil
// in, nil out.
func NonFDSnapOf(set *sampling.NonFDSet, numAttrs int) *NonFDSnap {
	if set == nil {
		return nil
	}
	s := &NonFDSnap{Version: 1, NumAttrs: int64(numAttrs)}
	for _, x := range set.Sets() {
		s.Sets = append(s.Sets, x.Clone())
	}
	return s
}

// Restore rebuilds the agree-set collection, re-adding in insertion order
// so dedup state matches the captured set.
func (s *NonFDSnap) Restore() *sampling.NonFDSet {
	if s == nil {
		return nil
	}
	set := sampling.NewNonFDSet(int(s.NumAttrs))
	for _, x := range s.Sets {
		set.Add(x)
	}
	return set
}

// TopKSnapOf captures the fused ranking heap. Nil in, nil out.
func TopKSnapOf(c *topk.Collector) *TopKSnap {
	if c == nil {
		return nil
	}
	entries, admitted, rejected, pruned := c.Export()
	s := &TopKSnap{
		Version:  1,
		K:        int64(c.K()),
		Admitted: admitted,
		Rejected: rejected,
		Pruned:   pruned,
	}
	for _, e := range entries {
		s.Entries = append(s.Entries, EntryRec{
			LHS:   e.FD.LHS,
			RHS:   e.FD.RHS,
			Score: int64(e.Score),
		})
	}
	return s
}

// Restore rebuilds the collector with the kept entries and cumulative
// offer counters.
func (s *TopKSnap) Restore() *topk.Collector {
	if s == nil {
		return nil
	}
	entries := make([]topk.Entry, 0, len(s.Entries))
	for _, e := range s.Entries {
		entries = append(entries, topk.Entry{
			FD:    dep.FD{LHS: e.LHS, RHS: e.RHS},
			Score: int(e.Score),
		})
	}
	return topk.Restore(int(s.K), entries, s.Admitted, s.Rejected, s.Pruned)
}

// ManifestOf captures up to max resident PLI-cache keys, MRU-first. Safe
// on a nil cache (empty manifest).
func ManifestOf(c *partition.Cache, max int) ManifestSnap {
	return ManifestSnap{Version: 1, Keys: c.Keys(max)}
}
