package fdtree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/sampling"
)

func benchNonFDs(n, k int, seed int64) []bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bitset.Set, k)
	for i := range out {
		s := bitset.New(n)
		for a := 0; a < n; a++ {
			if rng.Intn(3) != 0 {
				s.Add(a)
			}
		}
		if s.Count() == n {
			s.Remove(rng.Intn(n))
		}
		out[i] = s
	}
	return out
}

// BenchmarkSynergizedInduction measures the paper's induction on extended
// trees; BenchmarkClassicInduction the per-attribute induction on classic
// trees it replaces. Together they are the micro version of the FDEP vs
// FDEP2 comparison.
func BenchmarkSynergizedInduction(b *testing.B) {
	const n = 14
	nonFDs := benchNonFDs(n, 150, 1)
	full := bitset.Full(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewWithFullRHS(n)
		for _, x := range nonFDs {
			tr.Induct(x, full.Difference(x))
		}
	}
}

func BenchmarkClassicInduction(b *testing.B) {
	const n = 14
	nonFDs := benchNonFDs(n, 150, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewClassicWithFullRHS(n)
		for _, x := range nonFDs {
			for a := 0; a < n; a++ {
				if !x.Contains(a) {
					tr.SpecializeClassic(x, a)
				}
			}
		}
	}
}

// BenchmarkInductAll times the induction layer of DHyFD on its real input:
// the agree sets of the initial sample of diabetic 3000×19 (wide-induct's
// shape), sampled as a hybrid run samples them, inducted into a fresh
// tree per iteration.
func BenchmarkInductAll(b *testing.B) {
	bm, err := dataset.ByName("diabetic")
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(3000, 19)
	ctx, pool := context.Background(), engine.NewPool(1)
	singles, _, err := partition.Singles(ctx, pool, r.Cols, r.Cards, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	nonFDs := sampling.NewNonFDSet(r.NumCols())
	if _, _, err := sampling.ClusterNeighborSample(ctx, pool, r, sampling.NewRowOrder(r), singles, 1, nonFDs); err != nil {
		b.Fatal(err)
	}
	sets := nonFDs.Sets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewWithFullRHS(r.NumCols()).InductAll(sets)
	}
}

func BenchmarkCoveredRHS(b *testing.B) {
	const n = 14
	tr := NewWithFullRHS(n)
	full := bitset.Full(n)
	for _, x := range benchNonFDs(n, 100, 2) {
		tr.Induct(x, full.Difference(x))
	}
	lhs := bitset.FromAttrs(n, 0, 3, 5, 7, 9)
	cand := bitset.FromAttrs(n, 1, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CoveredRHS(lhs, cand)
	}
}

func BenchmarkNodesAtLevel(b *testing.B) {
	const n = 14
	tr := NewWithFullRHS(n)
	full := bitset.Full(n)
	for _, x := range benchNonFDs(n, 200, 3) {
		tr.Induct(x, full.Difference(x))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NodesAtLevel(4)
	}
}
