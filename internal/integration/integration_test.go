// Package integration cross-checks the complete pipeline: every discovery
// algorithm against every benchmark shape, covers against implication
// equivalence, and rankings against dataset totals.
package integration

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/tane"
)

// coverOf unwraps a driver's Run. The tests pass no cancellable context,
// so a run error is a bug and panics.
func coverOf(fds []dep.FD, _ *engine.RunStats, err error) []dep.FD {
	if err != nil {
		panic(err)
	}
	return fds
}

// must unwraps a ranking kernel's result, panicking on error like coverOf.
func must[T any](v T, _ ranking.Stats, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// discoverAll runs all six algorithms and fails the test if any pair
// disagrees. Returns the agreed left-reduced cover.
func discoverAll(t *testing.T, name string, r *relation.Relation) []dep.FD {
	t.Helper()
	ctx := context.Background()
	base := coverOf(core.Run(ctx, r, core.Config{}))
	checks := map[string][]dep.FD{
		"hyfd":    coverOf(hyfd.Run(ctx, r, hyfd.Config{})),
		"tane":    coverOf(tane.Run(ctx, r, tane.Config{})),
		"fdep":    coverOf(fdep.Run(ctx, r, fdep.Classic, fdep.Config{})),
		"fdep1":   coverOf(fdep.Run(ctx, r, fdep.NonRedundant, fdep.Config{})),
		"fdep2":   coverOf(fdep.Run(ctx, r, fdep.Sorted, fdep.Config{})),
		"fastfds": coverOf(fastfds.Run(ctx, r, fastfds.Config{})),
		"dfd":     coverOf(dfd.Run(ctx, r, dfd.Config{})),
	}
	for algo, fds := range checks {
		if !dep.Equal(base, fds) {
			only, other := dep.Diff(base, fds, r.Names)
			t.Fatalf("%s: dhyfd vs %s disagree.\nonly dhyfd: %v\nonly %s: %v",
				name, algo, only, algo, other)
		}
	}
	return base
}

// TestAllAlgorithmsOnAllShapes runs every algorithm on a small fragment of
// every benchmark shape — the broadest agreement check in the suite.
func TestAllAlgorithmsOnAllShapes(t *testing.T) {
	for _, b := range dataset.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cols := b.DefaultCols
			if cols > 12 {
				cols = 12
			}
			r := b.Generate(120, cols)
			fds := discoverAll(t, b.Name, r)
			// And against the exponential oracle where feasible.
			if r.NumCols() <= 12 {
				want := brute.MinimalFDs(r)
				if !dep.Equal(fds, want) {
					only, other := dep.Diff(fds, want, r.Names)
					t.Fatalf("vs brute force: only algos %v, only brute %v", only, other)
				}
			}
		})
	}
}

// TestNullSemanticsAgreement repeats the agreement check under null ≠ null
// on the incomplete shapes.
func TestNullSemanticsAgreement(t *testing.T) {
	for _, b := range dataset.All() {
		if !b.Incomplete {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cols := b.DefaultCols
			if cols > 10 {
				cols = 10
			}
			r := b.GenerateSemantics(100, cols, relation.NullNeqNull)
			fds := discoverAll(t, b.Name, r)
			if r.NumCols() <= 12 {
				want := brute.MinimalFDs(r)
				if !dep.Equal(fds, want) {
					t.Fatal("vs brute force under null≠null")
				}
			}
		})
	}
}

// TestPipelineEndToEnd exercises discover → canonicalize → rank → totals
// and their mutual invariants on moderately sized shapes.
func TestPipelineEndToEnd(t *testing.T) {
	for _, name := range []string{"ncvoter", "bridges", "echo", "breast"} {
		b, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := b.GenerateDefault()
		n := r.NumCols()

		ctx := context.Background()
		lr := coverOf(core.Run(ctx, r, core.Config{}))
		can := cover.Canonical(n, lr)

		if !cover.Equivalent(n, lr, can) {
			t.Errorf("%s: canonical cover not equivalent", name)
		}
		if !cover.UniqueLHS(can) {
			t.Errorf("%s: canonical cover has duplicate LHSs", name)
		}
		if dep.Count(can) > dep.Count(lr) {
			t.Errorf("%s: canonical bigger than left-reduced", name)
		}

		ranked := must(ranking.RankCtx(ctx, r, can, ranking.Config{}))
		if len(ranked) != len(can) {
			t.Fatalf("%s: ranked %d of %d", name, len(ranked), len(can))
		}
		for _, rk := range ranked {
			c := rk.Counts
			if c.NoNulls > c.NoNullRHS || c.NoNullRHS > c.WithNulls {
				t.Errorf("%s: count ordering violated: %+v", name, c)
			}
			if c.WithNulls > r.NumRows()*rk.FD.RHS.Count() {
				t.Errorf("%s: count exceeds occurrences: %+v", name, c)
			}
		}

		tot := must(ranking.TotalsCtx(ctx, r, can, ranking.Config{}))
		if tot.RedWithNulls > tot.Values || tot.Red > tot.RedWithNulls {
			t.Errorf("%s: implausible totals %+v", name, tot)
		}
		// Totals are cover-invariant.
		if tot2 := must(ranking.TotalsCtx(ctx, r, lr, ranking.Config{})); tot2 != tot {
			t.Errorf("%s: totals differ between covers: %+v vs %+v", name, tot, tot2)
		}
	}
}

// TestFragmentMonotonicity: a row fragment of a relation satisfies at least
// the FDs of the full relation... which is false in general for *minimal*
// covers, but the implied-FD sets must be monotone: every FD valid on the
// full data is valid on the fragment.
func TestFragmentMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	b, _ := dataset.ByName("ncvoter")
	full := b.Generate(400, 10)
	frag := full.Head(150)
	fullCover := coverOf(core.Run(context.Background(), full, core.Config{}))
	fragCover := coverOf(core.Run(context.Background(), frag, core.Config{}))
	nf := full.NumCols()
	e := cover.NewEngine(nf, fragCover)
	for _, f := range fullCover {
		if !e.Implies(f.LHS, f.RHS, -1) {
			t.Errorf("FD %s valid on full data but not on fragment", f.Format(full.Names))
		}
	}
	_ = rng
}
