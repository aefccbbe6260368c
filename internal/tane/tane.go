// Package tane implements the TANE algorithm of Huhtala, Kärkkäinen,
// Porkka and Toivonen — the column-based baseline of the paper.
//
// TANE traverses the attribute lattice level by level. Each level-ℓ
// candidate X carries its stripped partition π_X (the product of two
// level-(ℓ−1) parents), the RHS-candidate set C+(X) and links to its ℓ
// co-atoms X∖{A} on the level below; the FD X∖{A} → A is valid iff the
// partition error e(X∖{A}) equals e(X), read through the link. Key
// pruning removes superkeys from the lattice after emitting the FDs they
// certify.
//
// The two parents of X differ only in their last attribute, so their
// product is either parent refined by the other's last attribute
// (Algorithm 5 of the paper, the kernel the DDM and validation share).
// The refinements of one level are independent, so level generation
// batches them through partition.RefineBatch on the shared engine pool;
// workers = 1 keeps the classic serial behaviour.
//
// As the paper observes, TANE excels when all FDs have short LHSs
// (fd-reduced) and degrades badly with many columns; the partitions of a
// whole level resident in memory are its characteristic cost.
package tane

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
)

type candidate struct {
	set   bitset.Set
	attrs []int // ascending attribute list (cached)
	part  *partition.Partition
	err   int
	cplus bitset.Set
	dead  bool // pruned: joins no further
	// published: part went into the run's cache as an emitted FD's LHS.
	published bool
	// parents[i] is the co-atom X∖{attrs[i]} on the level below. Links are
	// cleared once the level above exists, so at most two levels stay
	// reachable.
	parents []*candidate
}

// Config tunes TANE; the algorithm has no knobs beyond the shared run
// options. Workers fans each level's partition products out over the pool.
// Budget exhaustion lets the current level finish validating and abandons
// deeper levels, since whole lattice levels of resident partitions are
// TANE's characteristic cost; the FDs certified so far are each valid, so
// the partial cover is sound. Cache serves singles and level partitions
// before they are built, and receives π of each emitted FD's LHS, once
// per LHS. Its readers after the run (Rank, the post-run gate, top-k's
// ranking) ask for π of a cover's LHSs, and every canonical-cover LHS is
// one of TANE's left-reduced ones; the other level products are not
// cached. TopK additionally kills candidates in the PRUNE phase whose
// largest co-atom partition cannot beat the threshold. MaxViolations > 0
// keeps only the C+ removals monotonicity justifies (the R∖X rule needs
// exact-FD transitivity), trading extra validations for soundness.
type Config = runstate.Options

// Run returns the left-reduced cover (singleton RHSs, minimal LHSs) of the
// FDs that hold on r together with the algorithm-agnostic run report.
// Lattice levels are abandoned promptly once ctx is done: the partial
// report (with Cancelled set) is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	h := runstate.Start("tane", cfg)
	defer h.Recover(&fds, &rs, &err)
	rs = h.Stats
	pool := h.Pool
	n := r.NumCols()
	var out []dep.FD
	if n == 0 {
		return h.End(nil, nil)
	}

	var g3c *partition.G3Counter
	if cfg.MaxViolations > 0 {
		g3c = partition.NewG3Counter(0)
	}

	full := bitset.Full(n)

	// Level 0 is the empty set: one cluster of all rows.
	emptyPart := partition.ForAttrs(bitset.New(n), r.Cols, r.Cards)

	// partitionForSet rebuilds π_X for a checkpointed attribute set through
	// the cache, charging the budget as the cached path does.
	partitionForSet := func(x bitset.Set) (*partition.Partition, error) {
		if x.IsEmpty() {
			return emptyPart, nil
		}
		p, _, err := partition.ForAttrsCached(ctx, cfg.Cache, x, r.Cols, r.Cards)
		if err != nil {
			return nil, err
		}
		cfg.Budget.ChargeBytes(partition.Cost(p))
		return p, nil
	}

	// publish puts π of an emitted FD's LHS into the cache, once per LHS.
	// ∅ stays out, so an empty LHS touches no cache counter downstream.
	publish := func(c *candidate) {
		if !c.published && !c.set.IsEmpty() {
			cfg.Cache.Put(c.set, c.part)
			c.published = true
		}
	}

	// level is the lattice level being validated and prev the level below
	// it, which its candidates link to.
	var level, prev []*candidate

	// Only a cache that held entries before the run can hold a level
	// product: TANE itself caches singles and emitted LHSs, and those lie
	// below the level being generated. Taken before the bootstrap and
	// before a resume warms the cache.
	probe := cfg.Cache.Len() > 0

	stop := rs.Phase("build")
	cfg.Budget.Charge(emptyPart)
	if f := resumeFrontier(cfg.Resume); f != nil {
		// Continue a checkpointed run: restore the emitted FDs, the counter
		// bases (TANE accumulates with +=, so assigning seeds them exactly),
		// the previous level and the live candidates, relinked to it;
		// partitions are rebuilt through the warmed cache.
		rs.Levels = f.Levels
		rs.RowsScanned = f.RowsScanned
		rs.PartitionsBuilt = f.PartitionsBuilt
		rs.PartitionsRefined = f.PartitionsRefined
		rs.CandidatesValidated = f.CandidatesValidated
		rs.Invalidated = f.Invalidated
		out = append(out, f.Out...)
		h.WarmCache(ctx, r)
		prev = make([]*candidate, 0, len(f.Prev))
		index := make(map[string]*candidate, len(f.Prev))
		for _, rec := range f.Prev {
			p, err := partitionForSet(rec.Set)
			if err != nil {
				stop()
				return h.End(nil, err)
			}
			c := &candidate{set: rec.Set, part: p, err: int(rec.Err)}
			prev = append(prev, c)
			index[rec.Set.Key()] = c
		}
		level = make([]*candidate, 0, len(f.Cands))
		for _, rec := range f.Cands {
			p, err := partitionForSet(rec.Set)
			if err != nil {
				stop()
				return h.End(nil, err)
			}
			c := &candidate{
				set:   rec.Set,
				attrs: rec.Set.Attrs(),
				part:  p,
				err:   int(rec.Err),
				cplus: rec.CPlus,
				dead:  rec.Dead,
			}
			c.parents = make([]*candidate, len(c.attrs))
			sub := rec.Set.Clone()
			for i, a := range c.attrs {
				sub.Remove(a)
				c.parents[i] = index[sub.Key()]
				sub.Add(a)
			}
			level = append(level, c)
		}
	} else {
		// Level 1, cold: every column's co-atom is ∅.
		prev = []*candidate{{set: bitset.New(n), part: emptyPart, err: emptyPart.Error()}}
		// The bootstrap builds the columns on the pool and charges the
		// budget exactly as a per-column loop would: cache hits as
		// resident bytes, fresh builds as materialized partitions.
		parts, built, err := partition.Singles(ctx, pool, r.Cols, r.Cards, 0, cfg.Cache, cfg.Budget)
		rs.PartitionsBuilt += int64(built)
		if err != nil {
			stop()
			return h.End(nil, err)
		}
		level = make([]*candidate, 0, n)
		for a := 0; a < n; a++ {
			p := parts[a]
			level = append(level, &candidate{
				set:     bitset.FromAttrs(n, a),
				attrs:   []int{a},
				part:    p,
				err:     p.Error(),
				cplus:   full.Clone(),
				parents: prev,
			})
		}
	}
	stop()

	// tick snapshots the level boundary: FDs emitted so far, the live
	// candidates, the previous level's errors, and the counters. A resumed
	// run re-enters the main loop exactly here.
	tick := func(force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			f := &runstate.TaneFrontier{
				Version:             1,
				Levels:              rs.Levels,
				RowsScanned:         rs.RowsScanned,
				PartitionsBuilt:     rs.PartitionsBuilt,
				PartitionsRefined:   rs.PartitionsRefined,
				CandidatesValidated: rs.CandidatesValidated,
				Invalidated:         rs.Invalidated,
			}
			for _, fd := range out {
				f.Out = append(f.Out, fd.Clone())
			}
			for _, c := range level {
				f.Cands = append(f.Cands, runstate.TaneCandRec{
					Set:   c.set.Clone(),
					CPlus: c.cplus.Clone(),
					Err:   int64(c.err),
					Dead:  c.dead,
				})
			}
			for _, p := range prev {
				f.Prev = append(f.Prev, runstate.TanePrevRec{Set: p.set.Clone(), Err: int64(p.err)})
			}
			return &runstate.Snapshot{Frontier: runstate.FrontierSnap{Tane: f}}
		})
	}

	for len(level) > 0 {
		if err := ctx.Err(); err != nil {
			// The level is untouched, so this is still a boundary: park
			// it for the final Flush and Ctrl-C loses nothing.
			tick(true)
			return h.End(nil, err)
		}
		tick(false)
		rs.Levels++
		stop = rs.Phase("validate")

		// COMPUTE_DEPENDENCIES.
		for _, c := range level {
			for i, a := range c.attrs {
				if !c.cplus.Contains(a) {
					continue
				}
				rest := c.parents[i]
				if rest == nil {
					continue // parent pruned: X∖A → A cannot be minimal
				}
				rs.CandidatesValidated++
				valid := false
				if cfg.MaxViolations > 0 {
					rs.RowsScanned += int64(rest.part.Size())
					valid = g3c.Violations(rest.part, r.Cols[a], r.Cards[a], cfg.MaxViolations) <= cfg.MaxViolations
				} else {
					valid = rest.err == c.err
				}
				if valid {
					publish(rest)
					rhs := bitset.New(n)
					rhs.Add(a)
					if cfg.TopK != nil {
						cfg.TopK.Admit(dep.FD{LHS: rest.set.Clone(), RHS: rhs}, rest.part.Size())
					} else {
						out = append(out, dep.FD{LHS: rest.set.Clone(), RHS: rhs})
					}
					c.cplus.Remove(a)
					if cfg.MaxViolations == 0 {
						// Remove all B ∈ R∖X from C+(X). The rule's proof
						// needs exact-FD transitivity, so approximate runs
						// keep only the Remove above.
						c.cplus.IntersectWith(c.set)
					}
				} else {
					rs.Invalidated++
				}
			}
		}

		// PRUNE.
		for _, c := range level {
			if c.cplus.IsEmpty() {
				c.dead = true
				continue
			}
			// Key pruning is exact-only: its completeness proof needs "a
			// valid FD whose node contains a superkey has a superkey LHS",
			// which holds for exact validity (π_Z = π_{Z∪{a}} forces Z
			// unique when any subset is) but fails for the g3 bound — an
			// approximate FD can live under a node containing an exact key.
			// Approximate runs keep superkey nodes alive; their FDs surface
			// through the ordinary C+-gated validation of child nodes.
			if cfg.MaxViolations == 0 && c.part.IsUnique() { // X is a (super)key
				outside := c.cplus.Difference(c.set)
				for a := outside.Next(0); a >= 0; a = outside.Next(a + 1) {
					if keyFDMinimal(r, c, a, rs) {
						publish(c)
						rhs := bitset.New(n)
						rhs.Add(a)
						if cfg.TopK != nil {
							// Superkey LHSs pin no rows: ‖π_X‖ = 0.
							cfg.TopK.Admit(dep.FD{LHS: c.set.Clone(), RHS: rhs}, c.part.Size())
						} else {
							out = append(out, dep.FD{LHS: c.set.Clone(), RHS: rhs})
						}
					}
				}
				c.dead = true
			}
			if cfg.TopK != nil && !c.dead {
				// Any FD specializing X has an LHS containing X or one of
				// its co-atoms, so its score is at most the largest co-atom
				// partition size.
				bound := 0
				for _, p := range c.parents {
					if p != nil && p.part.Size() > bound {
						bound = p.part.Size()
					}
				}
				if cfg.TopK.Prunable(bound) {
					c.dead = true
				}
			}
		}
		stop()

		// Past the budget, generating another level of partitions would be
		// the memory blow-up the budget exists to prevent: the level just
		// validated is complete, deeper levels are abandoned, and the FDs
		// certified so far stand on their own (each passed the error
		// test), so the partial cover is sound.
		if cfg.Budget.Exhausted() {
			rs.Degrade(cfg.Budget.Reason() + "; deeper lattice levels abandoned")
			break
		}

		stop = rs.Phase("generate")
		next, err := nextLevel(ctx, pool, r, level, rs, &cfg, probe)
		stop()
		if err != nil {
			return h.End(nil, err)
		}
		for _, p := range prev {
			cfg.Budget.Release(p.part)
		}
		for _, c := range level {
			c.parents = nil
		}
		prev, level = level, next
	}
	if err := ctx.Err(); err != nil {
		return h.End(nil, err)
	}
	// Terminal boundary: an empty frontier, so resuming a snapshot taken
	// after completion (or after a budget degrade) replays no work and
	// re-emits the same cover.
	level = nil
	tick(true)
	dep.Sort(out) // End swaps in the top-k collector's ranking order
	return h.End(out, nil)
}

// keyFDMinimal decides whether the key FD X → A (X a superkey, A outside
// X) is minimal. X → A is certainly valid; it is minimal iff no co-atom
// X∖{B} determines A, which is checked directly by refining the parent
// partition with A — the sibling C+ sets TANE's original certificate
// consults may already be pruned from the lattice, losing FDs. The
// co-atom check covers arbitrary subsets by monotonicity. Only exact runs
// call it: approximate runs disable the key rule.
func keyFDMinimal(r *relation.Relation, c *candidate, a int, rs *engine.RunStats) bool {
	for _, rest := range c.parents {
		if rest == nil {
			// Parent pruned: it was a key itself, so X∖{B} → A holds and
			// X → A is not minimal.
			return false
		}
		refined := partition.Refine(rest.part, r.Cols[a], r.Cards[a])
		rs.PartitionsRefined += int64(rest.part.Card())
		rs.RowsScanned += int64(rest.part.Size())
		if refined.Error() == rest.err {
			return false // X∖{B} → A already valid
		}
	}
	return true
}

// nextLevel generates level ℓ+1 by joining prefix blocks: two level-ℓ sets
// a = P∪{x} and b = P∪{y} sharing their first ℓ−1 attributes produce
// X = P∪{x, y}, kept only if all ℓ+1 co-atoms survive. a and b are X∖{y}
// and X∖{x}; the other ℓ−1 co-atoms are looked up in one index over the
// level's alive candidates, probed without allocating. X links all of
// them, its C+ is the intersection of theirs, and its partition the
// product of a's and b's. The pair scan is cheap and serial; the products
// — the level's hot path — run as one partition.RefineBatch over the
// worker pool, each refining the parent with fewer rows in clusters by the
// other's last attribute, so a product reads and allocates no more than
// the smaller parent. With probe set (the cache held entries before the
// run: a caller-owned cache an earlier run filled), candidates whose π_X
// the cache holds skip the product entirely. Fresh products are not
// cached: Run publishes π of the LHSs it emits FDs for, the only
// partitions the cache's readers ask for.
func nextLevel(ctx context.Context, pool *engine.Pool, r *relation.Relation, level []*candidate, rs *engine.RunStats, cfg *Config, probe bool) ([]*candidate, error) {
	alive := level[:0:0]
	for _, c := range level {
		if !c.dead {
			alive = append(alive, c)
		}
	}
	if len(alive) == 0 {
		return nil, ctx.Err()
	}
	sort.Slice(alive, func(i, j int) bool {
		return bitset.CompareLex(alive[i].set, alive[j].set) < 0
	})
	index := make(map[string]*candidate, len(alive))
	for _, c := range alive {
		index[c.set.Key()] = c
	}

	var next []*candidate
	var jobs []partition.RefineJob
	var jobFor []int // jobs[k] fills next[jobFor[k]]
	x, cplus := bitset.New(r.NumCols()), bitset.New(r.NumCols())
	var key []byte
	var links []*candidate
	for i := 0; i < len(alive); i++ {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	join:
		for j := i + 1; j < len(alive); j++ {
			a, b := alive[i], alive[j]
			if !samePrefix(a.attrs, b.attrs) {
				break // sorted order: later j cannot share the prefix either
			}
			x.CopyFrom(a.set)
			x.Add(b.attrs[len(b.attrs)-1])
			links = links[:0]
			for _, p := range a.attrs[:len(a.attrs)-1] {
				x.Remove(p)
				key = x.AppendKey(key[:0])
				x.Add(p)
				co := index[string(key)]
				if co == nil {
					continue join // some subset pruned: no minimal FD can come from here
				}
				links = append(links, co)
			}
			links = append(links, b, a)
			cplus.CopyFrom(a.cplus)
			for _, co := range links[:len(links)-1] {
				cplus.IntersectWith(co.cplus)
			}
			if cplus.IsEmpty() {
				continue
			}
			union := x.Clone()
			c := &candidate{
				set:     union,
				attrs:   union.Attrs(),
				cplus:   cplus.Clone(),
				parents: append([]*candidate(nil), links...),
			}
			if probe {
				c.part = cfg.Cache.Get(union)
			}
			if c.part != nil {
				c.err = c.part.Error()
				cfg.Budget.ChargeBytes(partition.Cost(c.part))
			} else {
				base, other := a, b
				if b.part.Size() < a.part.Size() {
					base, other = b, a
				}
				jobs = append(jobs, partition.RefineJob{Part: base.part, Attrs: other.attrs[len(other.attrs)-1:]})
				jobFor = append(jobFor, len(next))
			}
			next = append(next, c)
		}
	}
	parts, err := partition.RefineBatch(ctx, pool, r.Cols, r.Cards, jobs)
	if err != nil {
		return nil, err
	}
	for k, p := range parts {
		c := next[jobFor[k]]
		c.part = p
		c.err = p.Error()
		rs.RowsScanned += int64(jobs[k].Part.Size())
		cfg.Budget.Charge(p)
	}
	rs.PartitionsBuilt += int64(len(jobs))
	return next, nil
}

// resumeFrontier extracts a snapshot's TANE frontier, nil when the run
// starts cold or the snapshot belongs to another algorithm.
func resumeFrontier(s *runstate.Snapshot) *runstate.TaneFrontier {
	if s == nil || s.Frontier.Tane == nil {
		return nil
	}
	return s.Frontier.Tane
}

func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
