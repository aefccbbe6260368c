package hyfd

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/relation"
)

// discover runs HyFD with the experiments' tuning and returns its cover.
func discover(r *relation.Relation) []dep.FD {
	fds, _ := discoverWith(r, Config{})
	return fds
}

// discoverWith runs HyFD under cfg. The tests pass no cancellable context, so a
// run error is a bug and panics.
func discoverWith(r *relation.Relation, cfg Config) ([]dep.FD, *engine.RunStats) {
	fds, rs, err := Run(context.Background(), r, cfg)
	if err != nil {
		panic(err)
	}
	return fds, rs
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
		t.Fatalf("only hyfd %v, only brute %v", a, b)
	}
}

func TestDiscoverConstantAndKey(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0, 0}, // constant
		{0, 1, 2, 3}, // key
		{1, 1, 2, 2},
	}, nil, relation.NullEqNull)
	got := discover(r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only hyfd %v, only brute %v", a, b)
	}
}

func TestDiscoverEmptyAndDegenerate(t *testing.T) {
	if got := discover(relation.FromCodes(nil, nil, nil, relation.NullEqNull)); len(got) != 0 {
		t.Errorf("no columns: %v", got)
	}
	one := relation.FromCodes(nil, [][]int32{{0}}, nil, relation.NullEqNull)
	got := discover(one)
	if len(got) != 1 || got[0].LHS.Count() != 0 {
		t.Errorf("single row: %v", got)
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		rows := 4 + rng.Intn(40)
		cols := 2 + rng.Intn(6)
		card := 1 + rng.Intn(4)
		r := dataset.Random(rng, rows, cols, card)
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d card %d): only hyfd %v, only brute %v",
				trial, rows, cols, card, a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(80), 3+rng.Intn(5))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only hyfd %v, only brute %v", trial, a, b)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	// Plant c3 = f(c0, c1) so the tree has FDs at level >= 2 and validation
	// levels definitely execute.
	r := dataset.Generate(dataset.Spec{
		Name: "stats", Rows: 300, Seed: 5,
		Columns: []dataset.Column{
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Derived, Deps: []int{0, 1}, Card: 40},
		},
	})
	fds, rs := discoverWith(r, Config{})
	if rs.FDs != int64(len(fds)) {
		t.Errorf("rs.FDs = %d, len = %d", rs.FDs, len(fds))
	}
	if rs.Counters["sampling_rounds"] == 0 || rs.Counters["sampling_comparisons"] == 0 {
		t.Errorf("sampling counters empty: %v", rs.Counters)
	}
	if rs.CandidatesValidated == 0 || rs.Levels == 0 {
		t.Errorf("validation stats empty: %+v", rs)
	}
	if rs.Invalidated > rs.CandidatesValidated {
		t.Errorf("invalidated %d > validations %d", rs.Invalidated, rs.CandidatesValidated)
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if cfg.InvalidSwitchRatio != 0.01 || cfg.SamplingEfficiency != 0.01 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	// Extreme configs must not affect correctness, only performance.
	rng := rand.New(rand.NewSource(44))
	r := dataset.Random(rng, 30, 4, 3)
	want := brute.MinimalFDs(r)
	for _, cfg := range []Config{
		{InvalidSwitchRatio: 1e9, SamplingEfficiency: 1e9}, // never sample again
		{InvalidSwitchRatio: 1e-9, SamplingEfficiency: 1e-9},
	} {
		got, _ := discoverWith(r, cfg)
		if !dep.Equal(got, want) {
			t.Errorf("config %+v changes results", cfg)
		}
	}
}
