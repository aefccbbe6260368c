package tane

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/partition"
	"repro/internal/relation"
)

// discover runs TANE with the zero Config and returns its cover. The tests
// pass no cancellable context, so a run error is a bug and panics.
func discover(r *relation.Relation) []dep.FD {
	fds, _, err := Run(context.Background(), r, Config{})
	if err != nil {
		panic(err)
	}
	return fds
}

func TestDiscoverTiny(t *testing.T) {
	// a -> b (codes equal per a), c independent.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1, 1},
		{5, 5, 6, 6},
		{0, 1, 0, 1},
	}, nil, relation.NullEqNull)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("mismatch: only tane %v, only brute %v", a, b)
	}
}

func TestDiscoverConstantColumn(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0},
		{0, 1, 2},
	}, nil, relation.NullEqNull)
	got := discover(r)
	// ∅→col0 must be found; col1 is a key so col1→col0 is non-minimal.
	foundEmpty := false
	for _, f := range got {
		if f.LHS.Count() == 0 && f.RHS.Contains(0) {
			foundEmpty = true
		}
		if f.LHS.Contains(1) && f.RHS.Contains(0) {
			t.Errorf("non-minimal FD col1->col0 in output")
		}
	}
	if !foundEmpty {
		t.Error("missing ∅->col0")
	}
	if !dep.Equal(got, brute.MinimalFDs(r)) {
		t.Error("disagrees with brute force")
	}
}

func TestDiscoverKeyFDs(t *testing.T) {
	// col0 is a key: col0->col1 and col0->col2 must be emitted via the
	// key-pruning rule, minimally.
	r := relation.FromCodes(nil, [][]int32{
		{0, 1, 2, 3},
		{0, 0, 1, 1},
		{0, 1, 1, 0},
	}, nil, relation.NullEqNull)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("mismatch: only tane %v, only brute %v", a, b)
	}
}

func TestDiscoverEmptyAndSingleRow(t *testing.T) {
	// A single-row relation satisfies every FD; minimal cover is ∅→A for
	// all A.
	r := relation.FromCodes(nil, [][]int32{{0}, {0}}, nil, relation.NullEqNull)
	got := discover(r)
	if len(got) != 2 {
		t.Fatalf("single row cover = %v", got)
	}
	for _, f := range got {
		if f.LHS.Count() != 0 {
			t.Errorf("expected empty LHS, got %v", f)
		}
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		rows := 4 + rng.Intn(28)
		cols := 2 + rng.Intn(5)
		card := 1 + rng.Intn(4)
		r := dataset.Random(rng, rows, cols, card)
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d card %d): only tane %v, only brute %v",
				trial, rows, cols, card, a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 15; trial++ {
		r := dataset.RandomMixed(rng, 10+rng.Intn(40), 2+rng.Intn(5))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only tane %v, only brute %v", trial, a, b)
		}
	}
}

func TestSamePrefix(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{1, 3}, true},  // share prefix {1}
		{[]int{1, 2}, []int{2, 3}, false}, // differ at first attr
		{[]int{5}, []int{7}, true},        // empty prefix always shared
		{[]int{1, 2, 4}, []int{1, 2, 9}, true},
		{[]int{1, 3, 4}, []int{1, 2, 9}, false},
	}
	for _, c := range cases {
		if got := samePrefix(c.a, c.b); got != c.want {
			t.Errorf("samePrefix(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDiscoverCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	r := dataset.Random(rng, 50, 6, 3)
	if _, _, err := Run(ctx, r, Config{}); err == nil {
		t.Error("cancelled context must surface an error")
	}
}

func TestDiscoverWideLattice(t *testing.T) {
	// fd-reduced-like data: every FD at level 3 — TANE's sweet spot.
	b, err := dataset.ByName("fd-reduced")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(400, 12)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, bb := dep.Diff(got, want, r.Names)
		t.Fatalf("only tane %v, only brute %v", a, bb)
	}
}

// TestLevelPartitionsMatchForAttrs: every partition TANE publishes to the
// cache, the singles and each level's products (the smaller parent
// refined by the other's last attribute), equals π_X built directly by
// ForAttrs.
func TestLevelPartitionsMatchForAttrs(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for _, b := range dataset.All() {
		r := b.Generate(200, 10)
		for _, workers := range []int{1, 4} {
			cache := partition.NewCache(1<<30, nil)
			if _, _, err := Run(ctx, r, Config{Workers: workers, Cache: cache}); err != nil {
				t.Fatalf("%s workers=%d: %v", b.Name, workers, err)
			}
			for _, x := range cache.Keys(0) {
				got := cache.Get(x).Clone()
				if !got.Equal(partition.ForAttrs(x, r.Cols, r.Cards)) {
					t.Errorf("%s workers=%d: cached π_%v differs from ForAttrs", b.Name, workers, x.Attrs())
				}
				checked++
			}
		}
	}
	t.Logf("%d partitions checked", checked)
}
