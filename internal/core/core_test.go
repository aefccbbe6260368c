package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// discover runs DHyFD with the paper's tuning and returns its cover.
func discover(r *relation.Relation) []dep.FD {
	fds, _ := discoverWith(r, Config{})
	return fds
}

// discoverWith runs DHyFD under cfg. The tests pass no cancellable context, so a
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
		t.Fatalf("only dhyfd %v, only brute %v", a, b)
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
			t.Errorf("single row FD should have empty LHS: %v", f)
		}
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		rows := 4 + rng.Intn(40)
		cols := 2 + rng.Intn(6)
		card := 1 + rng.Intn(4)
		r := dataset.Random(rng, rows, cols, card)
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d card %d): only dhyfd %v, only brute %v",
				trial, rows, cols, card, a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(100), 3+rng.Intn(5))
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only dhyfd %v, only brute %v", trial, a, b)
		}
	}
}

// TestRatioDoesNotChangeResults: the efficiency–inefficiency ratio is a
// performance knob; any value must produce the same cover.
func TestRatioDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		r := dataset.RandomMixed(rng, 40+rng.Intn(100), 4+rng.Intn(4))
		want := brute.MinimalFDs(r)
		for _, ratio := range []float64{0.01, 0.5, 3.0, 1e12} {
			got, _ := discoverWith(r, Config{Ratio: ratio})
			if !dep.Equal(got, want) {
				a, b := dep.Diff(got, want, r.Names)
				t.Fatalf("trial %d ratio %g: only dhyfd %v, only brute %v", trial, ratio, a, b)
			}
		}
	}
}

// TestDDMRefinementTriggers: on data with many valid FDs at shallow levels
// the ratio fires and partitions are refreshed; the aggressive ratio must
// refresh at least as often as the disabled one.
func TestDDMRefinementTriggers(t *testing.T) {
	// Valid FDs at level 2 ({0,1}→6) raise efficiency early while the
	// low-cardinality categoricals keep many deeper FDs pending, so the
	// aggressive ratio must fire.
	r := dataset.Generate(dataset.Spec{
		Name: "deep", Rows: 200, Seed: 9,
		Columns: []dataset.Column{
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Categorical, Card: 3},
			{Kind: dataset.Derived, Deps: []int{0, 1}, Card: 100},
		},
	})
	_, aggressive := discoverWith(r, Config{Ratio: 0.001})
	_, disabled := discoverWith(r, Config{Ratio: 1e12})
	if n := disabled.Counters["ddm_refreshes"]; n != 0 {
		t.Errorf("disabled ratio still refined %d times", n)
	}
	if aggressive.Counters["ddm_refreshes"] == 0 {
		t.Errorf("aggressive ratio never refined; counters: %v", aggressive.Counters)
	}
	if aggressive.Counters["peak_dyn_partitions"] == 0 || aggressive.Counters["peak_dyn_rows"] == 0 {
		t.Errorf("peak memory proxies empty: %v", aggressive.Counters)
	}
}

func TestStatsPopulated(t *testing.T) {
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
	if rs.FDs != int64(len(fds)) || rs.FDs == 0 {
		t.Errorf("rs.FDs = %d, len = %d", rs.FDs, len(fds))
	}
	initial := rs.Counters["initial_non_fds"]
	if initial == 0 || rs.Counters["sampling_comparisons"] == 0 {
		t.Errorf("sampling counters empty: %v", rs.Counters)
	}
	if rs.CandidatesValidated == 0 || rs.Levels == 0 {
		t.Errorf("validation stats empty: %+v", rs)
	}
	if rs.NonFDs < initial {
		t.Errorf("total non-FDs %d below initial %d", rs.NonFDs, initial)
	}
}

// TestAllNullRelation: a relation of only nulls under null=null is a
// constant relation — every ∅ → A holds.
func TestAllNullRelation(t *testing.T) {
	rows := make([][]string, 10)
	for i := range rows {
		rows[i] = []string{"", ""}
	}
	r, err := relation.FromRows([]string{"a", "b"}, rows, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := discover(r)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	for _, f := range got {
		if f.LHS.Count() != 0 {
			t.Errorf("want empty LHS: %v", f)
		}
	}
}

// TestNullSemanticsChangeFDs: under null≠null a column of nulls acts like
// a key, flipping which FDs hold.
func TestNullSemanticsChangeFDs(t *testing.T) {
	raw := [][]string{
		{"", "x"},
		{"", "y"},
		{"", "x"},
	}
	eq, err := relation.FromRows([]string{"a", "b"}, raw, relation.Options{Semantics: relation.NullEqNull})
	if err != nil {
		t.Fatal(err)
	}
	neq, err := relation.FromRows([]string{"a", "b"}, raw, relation.Options{Semantics: relation.NullNeqNull})
	if err != nil {
		t.Fatal(err)
	}
	gotEq := discover(eq)   // a is constant: ∅→a holds; a→b fails (x vs y)
	gotNeq := discover(neq) // a is a key: a→b holds minimally
	if !dep.Equal(gotEq, brute.MinimalFDs(eq)) {
		t.Error("null=null cover wrong")
	}
	if !dep.Equal(gotNeq, brute.MinimalFDs(neq)) {
		t.Error("null≠null cover wrong")
	}
	if dep.Equal(gotEq, gotNeq) {
		t.Error("semantics should change the cover on this data")
	}
}

// TestParallelValidationMatchesSerial: the Workers knob must not change
// the cover — witness collection order differs, but the sorted induction
// and set-semantics dedup make results deterministic.
func TestParallelValidationMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		r := dataset.RandomMixed(rng, 150+rng.Intn(150), 5+rng.Intn(4))
		serial, _ := discoverWith(r, Config{Ratio: 3})
		for _, workers := range []int{2, 4, 8} {
			par, _ := discoverWith(r, Config{Ratio: 3, Options: runstate.Options{Workers: workers}})
			if !dep.Equal(serial, par) {
				a, b := dep.Diff(serial, par, r.Names)
				t.Fatalf("trial %d workers %d: serial vs parallel: %v / %v", trial, workers, a, b)
			}
		}
	}
}

// TestParallelStatsConsistent: counters must aggregate across workers.
func TestParallelStatsConsistent(t *testing.T) {
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(500, 12)
	_, serial := discoverWith(r, Config{Ratio: 3})
	_, par := discoverWith(r, Config{Ratio: 3, Options: runstate.Options{Workers: 4}})
	if par.FDs != serial.FDs {
		t.Errorf("FD counts differ: %d vs %d", par.FDs, serial.FDs)
	}
	if par.CandidatesValidated == 0 || par.Invalidated == 0 {
		t.Errorf("parallel counters empty: %+v", par)
	}
}

// TestExample5Ratio pins the efficiency–inefficiency arithmetic to the
// paper's Example 5 numbers.
func TestExample5Ratio(t *testing.T) {
	if got := EfficiencyInefficiencyRatio(1, 1, 2, 5); got != 2.5 {
		t.Errorf("left tree of Example 5: ratio = %v, want 2.5", got)
	}
	if got := EfficiencyInefficiencyRatio(1, 2, 2, 3); got != 0.75 {
		t.Errorf("right tree of Example 5: ratio = %v, want 0.75", got)
	}
}
