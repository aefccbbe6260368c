package integration

import (
	"context"
	"testing"

	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
	"repro/internal/tane"
)

// TestCoversAgainstGroupByOracle checks covers at the benchmark shapes'
// scale with an oracle that shares no code with discovery: brute.HoldsSet
// groups the rows on their raw LHS codes, groupby(X)[A].nunique() <= 1,
// and builds no partition. Every FD X → A of TANE's cover must hold and
// every co-atom X∖{B} → A must fail, on every shape at metaRows ×
// metaCols and on flight 500×17; on the shapes, DHyFD's cover must equal
// TANE's.
func TestCoversAgainstGroupByOracle(t *testing.T) {
	ctx := context.Background()
	checkTane := func(t *testing.T, r *relation.Relation) []dep.FD {
		cover := coverOf(tane.Run(ctx, r, tane.Config{}))
		for _, f := range cover {
			a := f.RHS.Min()
			if !brute.HoldsSet(r, f.LHS, a) {
				t.Errorf("%v does not hold", f.Format(r.Names))
			}
			sub := f.LHS.Clone()
			for b := f.LHS.Next(0); b >= 0; b = f.LHS.Next(b + 1) {
				sub.Remove(b)
				if brute.HoldsSet(r, sub, a) {
					t.Errorf("%v is not minimal: it holds without %s", f.Format(r.Names), r.Names[b])
				}
				sub.Add(b)
			}
		}
		return cover
	}
	for _, b := range dataset.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r := b.Generate(metaRows, metaCols)
			cover := checkTane(t, r)
			if other := coverOf(core.Run(ctx, r, core.Config{})); !dep.Equal(cover, other) {
				onlyTane, onlyDHyFD := dep.Diff(cover, other, r.Names)
				t.Errorf("only tane %v, only dhyfd %v", onlyTane, onlyDHyFD)
			}
		})
	}
	t.Run("flight-500x17", func(t *testing.T) {
		t.Parallel()
		b, err := dataset.ByName("flight")
		if err != nil {
			t.Fatal(err)
		}
		checkTane(t, b.Generate(500, 17))
	})
}
