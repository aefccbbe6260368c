// Package dfd implements DFD (Abedjan, Schulze and Naumann, CIKM 2014),
// the random-walk lattice algorithm the paper's related work cites among
// the column-based approaches.
//
// For each RHS attribute A, DFD walks the lattice of candidate LHSs over
// R−{A}: from a dependency it descends toward minimality, from a
// non-dependency it ascends toward maximality, pruning with the two
// classification rules (supersets of dependencies are dependencies,
// subsets of non-dependencies are non-dependencies). When a walk strands,
// new seeds are computed as minimal hitting sets of the complements of the
// maximal non-dependencies found so far — the unexplored gap between the
// known borders. Validity of X → A is decided by the partition error test
// e(X) = e(XA).
//
// The package is an extension beyond the paper's evaluated baselines; the
// integration suite cross-checks it against all of them.
package dfd

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// Config tunes DFD; the algorithm has no knobs beyond the shared run
// options. Each walk materialization runs on the run's pool: above one
// worker its refinements shard row-wise in ShardSize-row ranges
// (byte-identical results, so the walk's decisions match the serial run
// exactly), at one the serial kernels run. An attached Cache is
// prewarmed with every single-attribute partition, one column per pool
// item, and then keeps visited lattice nodes alive so a query refines
// from X's longest cached prefix instead of restarting from singles. Budget exhaustion abandons the walks of the remaining RHS
// attributes: each attribute is decided completely or not at all, so the
// FDs returned are sound. TopK skips a whole RHS walk when no LHS over
// R∖{A} can beat the threshold — pruning inside a walk would be unsound,
// since descending toward minimality increases the score. Checkpoints are
// taken after each fully decided RHS attribute. A Resume reseeds the rng,
// so walk order may differ, but each attribute's minimal FDs are
// data-determined and sorted, so the final cover is byte-identical.
type Config = runstate.Options

// Run returns the left-reduced cover (singleton RHSs) of the FDs holding on
// r together with the algorithm-agnostic run report, honouring ctx at
// walk boundaries. On cancellation the partial report (with Cancelled set)
// is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, cfg Config) (fds []dep.FD, rs *engine.RunStats, err error) {
	h := runstate.Start("dfd", cfg)
	defer h.Recover(&fds, &rs, &err)
	rs = h.Stats
	n := r.NumCols()
	var out []dep.FD
	d := &dfd{
		r:         r,
		n:         n,
		errs:      map[string]int{},
		sizes:     map[string]int{},
		rng:       rand.New(rand.NewSource(0x0dfd)),
		budget:    cfg.Budget,
		cache:     cfg.Cache,
		maxViol:   cfg.MaxViolations,
		pool:      h.Pool,
		pctx:      context.WithoutCancel(ctx),
		shardSize: cfg.ShardSize,
	}
	if cfg.MaxViolations > 0 {
		d.g3c = partition.NewG3Counter(0)
	}
	// Additive bases seeded from a resumed checkpoint: DFD derives its
	// validation/build counters from its memo sizes, which start empty in
	// the new process.
	var valBase, builtBase int64
	startAttr := 0
	if cfg.Resume != nil && cfg.Resume.Frontier.DFD != nil {
		f := cfg.Resume.Frontier.DFD
		out = append(out, f.Out...)
		startAttr = int(f.NextAttr)
		valBase, builtBase = f.Validations, f.PartitionsBuilt
		if err := h.WarmCache(ctx, r); err != nil {
			return h.End(nil, err)
		}
	}
	// tick snapshots the walk cursor: attributes below next are fully
	// decided, their minimal FDs are in out, and everything else is
	// rebuilt.
	tick := func(next int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			f := &runstate.DFDFrontier{
				Version:         1,
				NextAttr:        int64(next),
				Validations:     valBase + int64(len(d.errs)),
				PartitionsBuilt: builtBase + int64(len(d.errs)),
			}
			for _, fd := range out {
				f.Out = append(f.Out, fd.Clone())
			}
			return &runstate.Snapshot{Frontier: runstate.FrontierSnap{DFD: f}}
		})
	}
	var prewarmBuilt int64
	// finish derives the memo-size counters and closes the run.
	finish := func(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
		rs.CandidatesValidated = valBase + int64(len(d.errs))
		rs.PartitionsBuilt = builtBase + prewarmBuilt + int64(len(d.errs))
		return h.End(fds, err)
	}
	if cfg.Cache != nil {
		// Prewarm the cache with every single-attribute partition, one
		// column per item on the run's pool, so walks always find a
		// prefix start instead of rebuilding singles mid-walk. The cache
		// owns the bytes (and charges its own budget); no transient
		// materialization charge.
		_, built, err := partition.Singles(ctx, h.Pool, r.Cols, r.Cards, 0, cfg.Cache, nil)
		prewarmBuilt = int64(built)
		if err != nil {
			return finish(nil, err)
		}
	}
	var singleBound []int
	if cfg.TopK != nil {
		// The best score any non-empty LHS over R∖{A} can reach is the
		// largest single-attribute partition size outside A.
		singleBound = make([]int, n)
		for b := 0; b < n; b++ {
			singleBound[b] = d.sizeOf(bitset.FromAttrs(n, b))
		}
	}
	stop := rs.Phase("walk")
	defer stop()
	for a := startAttr; a < n; a++ {
		if err := ctx.Err(); err != nil {
			// Attribute a is untouched, so this is still a boundary:
			// park it for the final Flush and Ctrl-C loses nothing.
			tick(a, true)
			return finish(nil, err)
		}
		tick(a, false)
		// A walk boundary is the one point where no materialization is in
		// flight, so a paged relation can drop the column pages it pulled
		// in during the previous walk and bound peak RSS to one walk's
		// working set. No-op for resident relations.
		d.r.PageOut()
		// A walk decides one RHS attribute completely or not at all, so
		// abandoning the remaining attributes on budget exhaustion leaves
		// a sound partial cover.
		if d.budget.Exhausted() {
			rs.Degrade(d.budget.Reason() + "; remaining RHS walks abandoned")
			break
		}
		if cfg.TopK != nil && !d.holdsRaw(bitset.New(n), a) {
			// No ∅ → a, so every FD with RHS a scores at most the best
			// outside single: skip the whole walk when that cannot enter
			// the heap. (When ∅ → a holds the walk below finds exactly it.)
			bound := 0
			for b := 0; b < n; b++ {
				if b != a && singleBound[b] > bound {
					bound = singleBound[b]
				}
			}
			if cfg.TopK.Prunable(bound) {
				continue
			}
		}
		minDeps, err := d.minimalLHSs(ctx, a)
		if err != nil {
			// The abandoned walk emitted nothing for a; the boundary is
			// unchanged.
			tick(a, true)
			return finish(nil, err)
		}
		rhs := bitset.New(n)
		rhs.Add(a)
		for _, x := range minDeps {
			if cfg.TopK != nil {
				cfg.TopK.Admit(dep.FD{LHS: x, RHS: rhs}, d.sizeOf(x))
			} else {
				out = append(out, dep.FD{LHS: x, RHS: rhs.Clone()})
			}
		}
	}
	// Terminal boundary: resuming a post-completion snapshot replays no
	// walks and re-emits the same cover.
	tick(n, true)
	dep.Sort(out) // End swaps in the top-k collector's ranking order
	return finish(out, nil)
}

type dfd struct {
	r       *relation.Relation
	n       int
	errs    map[string]int // partition error cache, keyed by attribute set
	sizes   map[string]int // partition size cache (‖π_X‖), same keys
	rng     *rand.Rand
	budget  *partition.Budget
	cache   *partition.Cache
	maxViol int
	g3c     *partition.G3Counter
	// pool is the run's pool every materialization runs on, sharded when
	// it is wider than one worker. It runs under a non-cancellable
	// context — cancellation is observed at the walk boundaries — so pool
	// failures are genuine panics, re-raised into Run's recovery.
	pool      *engine.Pool
	pctx      context.Context
	shardSize int
}

// errorOf returns e(X) = ‖π_X‖ − |π_X|, cached. Each miss materializes a
// partition — through the shared PLI cache when one is attached, so the
// walk's neighbouring nodes refine each other's partitions instead of
// restarting from singles; the budget counts it against the partition cap
// (the byte charge is returned immediately, since only the error is kept
// here — the PLI cache owns what it retains).
func (d *dfd) errorOf(x bitset.Set) int {
	k := x.Key()
	if e, ok := d.errs[k]; ok {
		return e
	}
	p := d.materialize(k, x)
	return p.Error()
}

// sizeOf returns ‖π_X‖, the fused top-k score of any FD with LHS X,
// cached alongside the errors.
func (d *dfd) sizeOf(x bitset.Set) int {
	k := x.Key()
	if s, ok := d.sizes[k]; ok {
		return s
	}
	p := d.materialize(k, x)
	return p.Size()
}

// materialize builds π_X, charges it against the budget (returning the
// bytes immediately — only the measures are kept here) and records both
// measures under k. The build runs on the run's pool, sharded when it
// is wider than one worker and byte-identical to the serial kernels
// either way; a pool failure re-raises into Run's recovery (the pool
// context cannot be cancelled, so the failure is a genuine worker panic).
func (d *dfd) materialize(k string, x bitset.Set) *partition.Partition {
	p, _, err := partition.ForAttrsCached(d.pctx, d.pool, d.cache, x, d.r.Cols, d.r.Cards, d.shardSize)
	if err != nil {
		panic(err)
	}
	d.budget.Charge(p)
	d.budget.Release(p)
	d.errs[k] = p.Error()
	d.sizes[k] = p.Size()
	return p
}

// holdsRaw decides X → a: the TANE error test, or the g3 bound when the
// run is approximate.
func (d *dfd) holdsRaw(x bitset.Set, a int) bool {
	if d.maxViol > 0 {
		p := d.materialize(x.Key(), x)
		return d.g3c.Violations(p, d.r.Cols[a], d.r.Cards[a], d.maxViol) <= d.maxViol
	}
	xa := x.Clone()
	xa.Add(a)
	return d.errorOf(x) == d.errorOf(xa)
}

// walkState tracks the classification borders for one RHS attribute.
type walkState struct {
	a          int
	minDeps    []bitset.Set
	maxNonDeps []bitset.Set
	verdict    map[string]bool // computed validity, by LHS key
}

// classified reports whether x is already decided by the borders.
func (w *walkState) classified(x bitset.Set) (isDep, known bool) {
	for _, m := range w.minDeps {
		if m.IsSubsetOf(x) {
			return true, true
		}
	}
	for _, nd := range w.maxNonDeps {
		if x.IsSubsetOf(nd) {
			return false, true
		}
	}
	return false, false
}

// holds decides X → a, consulting borders and the verdict cache first.
func (d *dfd) holds(w *walkState, x bitset.Set) bool {
	if isDep, known := w.classified(x); known {
		return isDep
	}
	k := x.Key()
	if v, ok := w.verdict[k]; ok {
		return v
	}
	v := d.holdsRaw(x, w.a)
	w.verdict[k] = v
	return v
}

// minimalLHSs finds all minimal X with X → a.
func (d *dfd) minimalLHSs(ctx context.Context, a int) ([]bitset.Set, error) {
	w := &walkState{a: a, verdict: map[string]bool{}}

	full := bitset.Full(d.n)
	full.Remove(a)

	// ∅ → a (constant column) short-circuits everything.
	if d.holds(w, bitset.New(d.n)) {
		return []bitset.Set{bitset.New(d.n)}, nil
	}
	// If even R−{a} does not determine a, there are no FDs with RHS a.
	if !d.holds(w, full) {
		return nil, nil
	}

	seeds := make([]bitset.Set, 0, d.n)
	for b := 0; b < d.n; b++ {
		if b != a {
			seeds = append(seeds, bitset.FromAttrs(d.n, b))
		}
	}
	for len(seeds) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Random walk from a random seed. Seeds classified since they were
		// computed are skipped: a walk from inside the known borders would
		// strand on an already-recorded border node and make no progress.
		i := d.rng.Intn(len(seeds))
		node := seeds[i]
		seeds = append(seeds[:i], seeds[i+1:]...)
		if _, known := w.classified(node); !known {
			d.walk(ctx, w, node, full)
		}

		if len(seeds) == 0 {
			var err error
			seeds, err = d.nextSeeds(ctx, w, full)
			if err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(w.minDeps, func(i, j int) bool { return bitset.CompareLex(w.minDeps[i], w.minDeps[j]) < 0 })
	return w.minDeps, nil
}

// walk performs one random walk from node until it strands on a recorded
// minimal dependency or maximal non-dependency.
func (d *dfd) walk(ctx context.Context, w *walkState, node bitset.Set, full bitset.Set) {
	for steps := 0; steps < 4*d.n*d.n+64; steps++ {
		if ctx.Err() != nil {
			return
		}
		if d.holds(w, node) {
			// Dependency: find an unpruned child that still holds.
			next, minimal := d.descend(w, node)
			if minimal {
				d.recordMinDep(w, node)
				return
			}
			node = next
		} else {
			next, maximal := d.ascend(w, node, full)
			if maximal {
				d.recordMaxNonDep(w, node)
				return
			}
			node = next
		}
	}
}

// descend looks for a child (one attribute removed) that is still a
// dependency; when none is, node is a minimal dependency.
func (d *dfd) descend(w *walkState, node bitset.Set) (bitset.Set, bool) {
	attrs := node.Attrs()
	d.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	for _, b := range attrs {
		child := node.Clone()
		child.Remove(b)
		if d.holds(w, child) {
			return child, false
		}
	}
	return nil, true
}

// ascend looks for a parent (one attribute added) that is still a
// non-dependency; when none is, node is a maximal non-dependency.
func (d *dfd) ascend(w *walkState, node bitset.Set, full bitset.Set) (bitset.Set, bool) {
	candidates := full.Difference(node).Attrs()
	d.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for _, b := range candidates {
		parent := node.Clone()
		parent.Add(b)
		if !d.holds(w, parent) {
			return parent, false
		}
	}
	return nil, true
}

func (d *dfd) recordMinDep(w *walkState, node bitset.Set) {
	for _, m := range w.minDeps {
		if m.Equal(node) {
			return
		}
	}
	w.minDeps = append(w.minDeps, node.Clone())
}

func (d *dfd) recordMaxNonDep(w *walkState, node bitset.Set) {
	for _, m := range w.maxNonDeps {
		if m.Equal(node) {
			return
		}
	}
	w.maxNonDeps = append(w.maxNonDeps, node.Clone())
}

// nextSeeds finds nodes not yet classified by the borders: minimal hitting
// sets of the complements of the maximal non-dependencies that do not
// contain a known minimal dependency. An empty result proves the lattice
// fully classified (every node is below some max non-dep or above some
// min dep), terminating the search for this attribute.
func (d *dfd) nextSeeds(ctx context.Context, w *walkState, full bitset.Set) ([]bitset.Set, error) {
	// Complements of max non-deps within full.
	var comps []bitset.Set
	for _, nd := range w.maxNonDeps {
		comps = append(comps, full.Difference(nd))
	}
	var seeds []bitset.Set
	e := &hitEnum{ctx: ctx, n: d.n}
	e.enumerate(comps, bitset.New(d.n), full.Attrs(), 0)
	if e.err != nil {
		return nil, e.err
	}
	for _, h := range e.hits {
		// A hitting set above or equal to a known minimal dependency is
		// already classified; everything else is genuinely unexplored.
		if dep, known := w.classified(h); !known || !dep {
			seeds = append(seeds, h)
		}
	}
	return seeds, nil
}

// hitEnum enumerates minimal hitting sets of comps over the given attrs.
type hitEnum struct {
	ctx   context.Context
	n     int
	hits  []bitset.Set
	steps int
	err   error
}

func (e *hitEnum) enumerate(remaining []bitset.Set, x bitset.Set, attrs []int, from int) {
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
		for _, h := range e.hits {
			if h.IsSubsetOf(x) {
				return
			}
		}
		e.hits = append(e.hits, x.Clone())
		return
	}
	// Branch on the attributes of the first uncovered complement set: any
	// hitting set must include one of them (standard HS enumeration, which
	// visits every minimal hitting set).
	first := remaining[0]
	for b := first.Next(0); b >= 0; b = first.Next(b + 1) {
		if x.Contains(b) {
			continue
		}
		rest := remaining[:0:0]
		for _, c := range remaining {
			if !c.Contains(b) {
				rest = append(rest, c)
			}
		}
		x.Add(b)
		e.enumerate(rest, x, attrs, from)
		x.Remove(b)
	}
}
