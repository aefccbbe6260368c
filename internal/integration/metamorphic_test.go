package integration

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	dhyfd "repro"
	"repro/internal/armstrong"
	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/hyfd"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/tane"
)

// The metamorphic relations run every benchmark shape at a size the
// brute-force oracle cannot check: metaRows rows and metaCols columns,
// or all of them where the shape has fewer.
const (
	metaRows = 300
	metaCols = 12
)

// hybrids are the drivers the column-copy relation checks.
var hybrids = []struct {
	name string
	run  func(context.Context, *relation.Relation) ([]dep.FD, *engine.RunStats, error)
}{
	{"dhyfd", func(ctx context.Context, r *relation.Relation) ([]dep.FD, *engine.RunStats, error) {
		return core.Run(ctx, r, core.Config{})
	}},
	{"hyfd", func(ctx context.Context, r *relation.Relation) ([]dep.FD, *engine.RunStats, error) {
		return hyfd.Run(ctx, r, hyfd.Config{})
	}},
}

// metaAlgorithms are the algorithms the row and column permutations and
// the duplicated rows check on a shape: all eight, except that under the
// race detector the six beyond the hybrids run only on ncvoter, bridges
// and flight, as in TestArmstrongRoundTripShapes.
func metaAlgorithms(shape string) []dhyfd.Algorithm {
	if raceEnabled && shape != "ncvoter" && shape != "bridges" && shape != "flight" {
		return []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD}
	}
	return dhyfd.Algorithms()
}

// discoverCover returns a's cover of r, panicking on error like coverOf.
func discoverCover(ctx context.Context, r *relation.Relation, a dhyfd.Algorithm) []dep.FD {
	res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a))
	if err != nil {
		panic(err)
	}
	return res.FDs
}

// TestRowPermutationKeepsCover: an FD holds on a set of tuples, so
// storing the rows in another order must return the identical cover.
func TestRowPermutationKeepsCover(t *testing.T) {
	ctx := context.Background()
	for i, b := range dataset.All() {
		i, b := i, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			perm := rand.New(rand.NewSource(int64(i))).Perm(r.NumRows())
			cols := make([][]int32, r.NumCols())
			nulls := make([][]bool, r.NumCols())
			for c := range cols {
				cols[c] = make([]int32, len(perm))
				if r.Nulls[c] != nil {
					nulls[c] = make([]bool, len(perm))
				}
				for to, from := range perm {
					cols[c][to] = r.Cols[c][from]
					if nulls[c] != nil {
						nulls[c][to] = r.Nulls[c][from]
					}
				}
			}
			p := relation.FromCodes(r.Names, cols, nulls, r.Semantics)
			for _, a := range metaAlgorithms(b.Name) {
				want := discoverCover(ctx, r, a)
				got := discoverCover(ctx, p, a)
				if !reflect.DeepEqual(got, want) {
					only, other := dep.Diff(got, want, r.Names)
					t.Errorf("%v: rows permuted: only permuted %v, only original %v", a, only, other)
				}
			}
		})
	}
}

// TestColumnPermutationPermutesCover: renumbering the attributes must
// renumber the cover and change nothing else.
func TestColumnPermutationPermutesCover(t *testing.T) {
	ctx := context.Background()
	for i, b := range dataset.All() {
		i, b := i, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			n := r.NumCols()
			// Column c of p is column perm[c] of r, so attribute a of r is
			// attribute at[a] of p.
			perm := rand.New(rand.NewSource(int64(i))).Perm(n)
			at := make([]int, n)
			names := make([]string, n)
			cols := make([][]int32, n)
			nulls := make([][]bool, n)
			for c, from := range perm {
				at[from] = c
				names[c], cols[c], nulls[c] = r.Names[from], r.Cols[from], r.Nulls[from]
			}
			p := relation.FromCodes(names, cols, nulls, r.Semantics)
			renumber := func(s bitset.Set) bitset.Set {
				out := bitset.New(n)
				for a := s.Next(0); a >= 0; a = s.Next(a + 1) {
					out.Add(at[a])
				}
				return out
			}
			for _, a := range metaAlgorithms(b.Name) {
				cover := discoverCover(ctx, r, a)
				want := make([]dep.FD, 0, len(cover))
				for _, f := range cover {
					want = append(want, dep.FD{LHS: renumber(f.LHS), RHS: renumber(f.RHS)})
				}
				dep.Sort(want)
				got := discoverCover(ctx, p, a)
				// Element by element, so an empty cover equals a nil one.
				if !slices.EqualFunc(got, want, func(f, g dep.FD) bool { return reflect.DeepEqual(f, g) }) {
					only, other := dep.Diff(got, want, p.Names)
					t.Errorf("%v: columns permuted: only permuted %v, only renumbered original %v", a, only, other)
				}
			}
		})
	}
}

// TestDuplicateRowsKeepCover: under null = null, the semantics the
// generator encodes with, a row and its copy agree on every attribute,
// so storing every row twice must return the identical cover.
func TestDuplicateRowsKeepCover(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			cols := make([][]int32, r.NumCols())
			nulls := make([][]bool, r.NumCols())
			for c := range cols {
				cols[c] = append(append([]int32(nil), r.Cols[c]...), r.Cols[c]...)
				if r.Nulls[c] != nil {
					nulls[c] = append(append([]bool(nil), r.Nulls[c]...), r.Nulls[c]...)
				}
			}
			d := relation.FromCodes(r.Names, cols, nulls, r.Semantics)
			for _, a := range metaAlgorithms(b.Name) {
				want := discoverCover(ctx, r, a)
				got := discoverCover(ctx, d, a)
				if !reflect.DeepEqual(got, want) {
					only, other := dep.Diff(got, want, r.Names)
					t.Errorf("%v: rows duplicated: only duplicated %v, only original %v", a, only, other)
				}
			}
		})
	}
}

// TestColumnCopyAddsTwinFDs: appending an exact copy A′ of a column A —
// codes and null mask both — adds exactly the FDs A′ makes minimal: for
// every FD whose LHS holds A, a twin with A′ in its place; X → A′ for
// every X → A; and A → A′ and A′ → A, unless ∅ → A is in the cover (A
// is constant, so ∅ → A′ is the only new FD with RHS A′ and neither
// single-attribute FD is minimal). Nothing else may change.
func TestColumnCopyAddsTwinFDs(t *testing.T) {
	ctx := context.Background()
	for i, b := range dataset.All() {
		i, b := i, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			n := r.NumCols()
			a := rand.New(rand.NewSource(int64(i))).Intn(n)
			names := append(append([]string(nil), r.Names...), r.Names[a]+"_copy")
			cols := append(append([][]int32(nil), r.Cols...), append([]int32(nil), r.Cols[a]...))
			nulls := append(append([][]bool(nil), r.Nulls...), append([]bool(nil), r.Nulls[a]...))
			d := relation.FromCodes(names, cols, nulls, r.Semantics)
			// widen lifts an attribute set of r into d's schema; attribute
			// n of d is A′.
			widen := func(s bitset.Set) bitset.Set {
				out := bitset.New(n + 1)
				for x := s.Next(0); x >= 0; x = s.Next(x + 1) {
					out.Add(x)
				}
				return out
			}
			for _, h := range hybrids {
				var want []dep.FD
				constant := false
				for _, f := range coverOf(h.run(ctx, r)) {
					lhs, rhs := widen(f.LHS), widen(f.RHS)
					want = append(want, dep.FD{LHS: lhs, RHS: rhs})
					if lhs.Contains(a) {
						twin := lhs.Clone()
						twin.Remove(a)
						twin.Add(n)
						want = append(want, dep.FD{LHS: twin, RHS: rhs})
					}
					if rhs.Contains(a) {
						want = append(want, dep.FD{LHS: lhs, RHS: bitset.FromAttrs(n+1, n)})
						constant = constant || lhs.IsEmpty()
					}
				}
				if !constant {
					want = append(want,
						dep.FD{LHS: bitset.FromAttrs(n+1, a), RHS: bitset.FromAttrs(n+1, n)},
						dep.FD{LHS: bitset.FromAttrs(n+1, n), RHS: bitset.FromAttrs(n+1, a)})
				}
				dep.Sort(want)
				got := coverOf(h.run(ctx, d))
				if !reflect.DeepEqual(got, want) {
					only, other := dep.Diff(got, want, d.Names)
					t.Errorf("%s: column %s copied: only discovered %v, only expected %v", h.name, r.Names[a], only, other)
				}
			}
		})
	}
}

// TestErrorBoundMonotone: an FD whose g3 error is within ε₁ is within any
// ε₂ > ε₁, so every FD X → A of the ε₁ cover needs some Y → A with Y ⊆ X
// in the ε₂ cover. Checked for the four lattice algorithms on every shape
// at metaRows × 10, for ε ∈ {0, 0.01, 0.05}. A C+ rule that holds only
// for exact FDs, applied to an approximate run, loses FDs here.
func TestErrorBoundMonotone(t *testing.T) {
	ctx := context.Background()
	lattice := []struct {
		name string
		run  func(context.Context, *relation.Relation, runstate.Options) ([]dep.FD, *engine.RunStats, error)
	}{
		{"dhyfd", func(ctx context.Context, r *relation.Relation, o runstate.Options) ([]dep.FD, *engine.RunStats, error) {
			return core.Run(ctx, r, core.Config{Options: o})
		}},
		{"hyfd", hyfd.Run},
		{"tane", tane.Run},
		{"dfd", dfd.Run},
	}
	epsilons := []float64{0, 0.01, 0.05}
	for _, b := range dataset.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, 10)
			for _, d := range lattice {
				var tighter []dep.FD
				for i, eps := range epsilons {
					cover := coverOf(d.run(ctx, r, runstate.Options{MaxViolations: int(eps * float64(r.NumRows()))}))
					lhss := map[int][]bitset.Set{}
					for _, f := range cover {
						lhss[f.RHS.Min()] = append(lhss[f.RHS.Min()], f.LHS)
					}
					for _, f := range tighter {
						implied := false
						for _, y := range lhss[f.RHS.Min()] {
							implied = implied || y.IsSubsetOf(f.LHS)
						}
						if !implied {
							t.Errorf("%s: %v holds at ε=%v but no subset of its LHS determines its RHS at ε=%v",
								d.name, f.Format(r.Names), epsilons[i-1], eps)
						}
					}
					tighter = cover
				}
			}
		})
	}
}

// TestArmstrongRoundTripShapes: an Armstrong relation for an FD set Σ
// satisfies exactly the FDs Σ implies, so on it every algorithm must
// return a cover equivalent to Σ. Σ is the brute-force oracle's cover of
// each shape at metaRows×metaCols, so no algorithm grades itself. Under
// the race detector only three shapes run, as in cache_test.go; the full
// set runs without it.
func TestArmstrongRoundTripShapes(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		if raceEnabled && b.Name != "ncvoter" && b.Name != "bridges" && b.Name != "flight" {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			n := r.NumCols()
			sigma := cover.Canonical(n, brute.MinimalFDs(r))
			arm, err := armstrong.Relation(n, sigma, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range dhyfd.Algorithms() {
				res, err := dhyfd.Discover(ctx, arm, dhyfd.WithAlgorithm(a))
				if err != nil {
					t.Fatalf("%v: %v", a, err)
				}
				if !cover.Equivalent(n, res.FDs, sigma) {
					t.Errorf("%v: %d FDs on the %d-row Armstrong relation are not equivalent to Σ's %d",
						a, len(res.FDs), arm.NumRows(), len(sigma))
				}
			}
		})
	}
}
