package fastfds

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
)

// discover runs FastFDs with the zero Config and returns its cover. The tests
// pass no cancellable context, so a run error is a bug and panics.
func discover(r *relation.Relation) []dep.FD {
	fds, _, err := Run(context.Background(), r, Config{})
	if err != nil {
		panic(err)
	}
	return fds
}

func TestDiscoverTiny(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1, 1},
		{5, 5, 6, 6},
		{0, 1, 0, 1},
	}, nil, relation.NullEqNull)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only fastfds %v, only brute %v", a, b)
	}
}

func TestDiscoverDegenerate(t *testing.T) {
	if got := discover(relation.FromCodes(nil, nil, nil, relation.NullEqNull)); len(got) != 0 {
		t.Errorf("no columns: %v", got)
	}
	one := relation.FromCodes(nil, [][]int32{{0}, {3}}, nil, relation.NullEqNull)
	got := discover(one)
	if len(got) != 2 {
		t.Errorf("single row: %v", got)
	}
	for _, f := range got {
		if f.LHS.Count() != 0 {
			t.Errorf("want empty LHS: %v", f)
		}
	}
}

func TestDifferOnlyOnA(t *testing.T) {
	// Rows differing only on col1: nothing determines col1.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0},
		{1, 2},
	}, nil, relation.NullEqNull)
	for _, f := range discover(r) {
		if f.RHS.Contains(1) {
			t.Errorf("col1 must not be determined: %v", f)
		}
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		r := dataset.Random(rng, 4+rng.Intn(36), 2+rng.Intn(6), 1+rng.Intn(4))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only fastfds %v, only brute %v", trial, a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 15; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(80), 3+rng.Intn(5))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only fastfds %v, only brute %v", trial, a, b)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(73))
	r := dataset.Random(rng, 60, 6, 3)
	if _, _, err := Run(ctx, r, Config{}); err == nil {
		t.Error("cancelled context must error")
	}
}

func TestMinimizeSets(t *testing.T) {
	sets := []bitset.Set{
		bitset.FromAttrs(4, 0, 1, 2),
		bitset.FromAttrs(4, 0, 1),
		bitset.FromAttrs(4, 2),
		bitset.FromAttrs(4, 2, 3),
	}
	got := minimizeSets(sets)
	if len(got) != 2 {
		t.Fatalf("minimized = %v", got)
	}
}
