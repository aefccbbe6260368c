package fdep

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
)

// discover runs the variant with the zero Config and returns its cover. The tests
// pass no cancellable context, so a run error is a bug and panics.
func discover(r *relation.Relation, variant Variant) []dep.FD {
	fds, _, err := Run(context.Background(), r, variant, Config{})
	if err != nil {
		panic(err)
	}
	return fds
}

func TestVariantString(t *testing.T) {
	if Classic.String() != "FDEP" || NonRedundant.String() != "FDEP1" || Sorted.String() != "FDEP2" {
		t.Error("variant names wrong")
	}
}

func TestDiscoverTinyAllVariants(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1, 1},
		{5, 5, 6, 6},
		{0, 1, 0, 1},
	}, nil, relation.NullEqNull)
	want := brute.MinimalFDs(r)
	for _, v := range []Variant{Classic, NonRedundant, Sorted} {
		got := discover(r, v)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Errorf("%v: only fdep %v, only brute %v", v, a, b)
		}
	}
}

func TestDiscoverDuplicateRows(t *testing.T) {
	// Duplicate rows produce the full agree set, which implies nothing.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1},
		{2, 2, 3},
	}, nil, relation.NullEqNull)
	want := brute.MinimalFDs(r)
	for _, v := range []Variant{Classic, NonRedundant, Sorted} {
		if got := discover(r, v); !dep.Equal(got, want) {
			t.Errorf("%v mismatch on duplicate rows", v)
		}
	}
}

func TestDiscoverSingleRowAllFDsHold(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{{0}, {1}}, nil, relation.NullEqNull)
	for _, v := range []Variant{Classic, NonRedundant, Sorted} {
		got := discover(r, v)
		if len(got) != 2 {
			t.Errorf("%v: got %v, want two ∅→A FDs", v, got)
		}
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		rows := 4 + rng.Intn(24)
		cols := 2 + rng.Intn(5)
		card := 1 + rng.Intn(4)
		r := dataset.Random(rng, rows, cols, card)
		want := brute.MinimalFDs(r)
		for _, v := range []Variant{Classic, NonRedundant, Sorted} {
			got := discover(r, v)
			if !dep.Equal(got, want) {
				a, b := dep.Diff(got, want, r.Names)
				t.Fatalf("trial %d %v (%dx%d): only fdep %v, only brute %v",
					trial, v, rows, cols, a, b)
			}
		}
	}
}

func TestVariantsAgreeOnMixedData(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		r := dataset.RandomMixed(rng, 10+rng.Intn(60), 2+rng.Intn(6))
		base := discover(r, Sorted)
		for _, v := range []Variant{Classic, NonRedundant} {
			got := discover(r, v)
			if !dep.Equal(got, base) {
				a, b := dep.Diff(got, base, r.Names)
				t.Fatalf("trial %d: %v vs FDEP2 diverge: %v / %v", trial, v, a, b)
			}
		}
	}
}
