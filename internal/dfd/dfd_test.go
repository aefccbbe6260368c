package dfd

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
)

// discover runs DFD with the zero Config and returns its cover. The tests
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
		t.Fatalf("only dfd %v, only brute %v", a, b)
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
}

func TestConstantAndKeyColumns(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0, 0}, // constant
		{0, 1, 2, 3}, // key
		{1, 1, 2, 2},
	}, nil, relation.NullEqNull)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only dfd %v, only brute %v", a, b)
	}
}

func TestUndeterminedAttribute(t *testing.T) {
	// Rows differ only on col1: no FD has col1 on the RHS.
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
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		r := dataset.Random(rng, 4+rng.Intn(36), 2+rng.Intn(6), 1+rng.Intn(4))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d): only dfd %v, only brute %v",
				trial, r.NumRows(), r.NumCols(), a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 12; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(80), 3+rng.Intn(5))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only dfd %v, only brute %v", trial, a, b)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(83))
	r := dataset.Random(rng, 60, 6, 3)
	if _, _, err := Run(ctx, r, Config{}); err == nil {
		t.Error("cancelled context must error")
	}
}
