package dhyfd_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/brute"
	"repro/internal/dep"
)

const votersCSV = `id,name,city,zip,state
1,ann,berlin,10115,de
2,bob,berlin,10115,de
3,cas,hamburg,20095,de
4,dee,hamburg,20095,de
5,eli,munich,80331,de
`

func loadVoters(t *testing.T) *dhyfd.Relation {
	t.Helper()
	rel, err := dhyfd.ReadCSV(strings.NewReader(votersCSV), dhyfd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// discoverDefault runs the default algorithm through the redesigned API.
func discoverDefault(t *testing.T, rel *dhyfd.Relation) []dhyfd.FD {
	t.Helper()
	res, err := dhyfd.Discover(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	return res.FDs
}

func TestDiscoverPublicAPI(t *testing.T) {
	rel := loadVoters(t)
	fds := discoverDefault(t, rel)
	want := brute.MinimalFDs(rel)
	if !dep.Equal(fds, want) {
		t.Fatalf("Discover mismatch: %v vs %v", fds, want)
	}
	// zip -> city must be among the minimal FDs.
	found := false
	for _, f := range fds {
		if f.Format(rel.Names) == "zip -> {2}" || strings.Contains(f.Format(rel.Names), "zip -> ") {
			found = true
		}
	}
	if !found {
		t.Errorf("zip -> city missing:\n%s", dhyfd.FormatFDs(fds, rel.Names))
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rel := loadVoters(t)
	want := brute.MinimalFDs(rel)
	for _, a := range dhyfd.Algorithms() {
		res, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithAlgorithm(a))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !dep.Equal(res.FDs, want) {
			t.Errorf("%v disagrees with brute force", a)
		}
	}
}

func TestCanonicalCoverShrinks(t *testing.T) {
	rel := loadVoters(t)
	fds := discoverDefault(t, rel)
	can := dhyfd.CanonicalCover(rel.NumCols(), fds)
	if !dhyfd.EquivalentCovers(rel.NumCols(), fds, can) {
		t.Error("canonical cover not equivalent")
	}
	cn, ca := dhyfd.CoverSize(can)
	ln, la := dhyfd.CoverSize(fds)
	if cn > ln || ca > la {
		t.Errorf("canonical larger: %d/%d vs %d/%d", cn, ca, ln, la)
	}
}

func TestRankPublicAPI(t *testing.T) {
	rel := loadVoters(t)
	can := dhyfd.CanonicalCover(rel.NumCols(), discoverDefault(t, rel))
	ranked, _, err := dhyfd.Rank(context.Background(), rel, can)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked FDs")
	}
	// state is constant: the top FD must cause 5 redundant occurrences.
	if ranked[0].Counts.WithNulls != 5 {
		t.Errorf("top redundancy = %d, want 5 (∅ -> state)", ranked[0].Counts.WithNulls)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Counts.WithNulls > ranked[i-1].Counts.WithNulls {
			t.Error("ranking not descending")
		}
	}
	buckets := dhyfd.RedundancyHistogram(ranked)
	total := 0
	for _, b := range buckets {
		total += b.FDs
	}
	if total != len(ranked) {
		t.Errorf("histogram covers %d of %d FDs", total, len(ranked))
	}
}

func TestRankForColumn(t *testing.T) {
	rel := loadVoters(t)
	can := dhyfd.CanonicalCover(rel.NumCols(), discoverDefault(t, rel))
	views, _, err := dhyfd.RankForColumn(context.Background(), rel, can, 2) // city
	if err != nil {
		t.Fatal(err)
	}
	if len(views) == 0 {
		t.Fatal("no LHS determines city?")
	}
	// zip determines city with 4 redundant city occurrences (two pairs).
	foundZip := false
	for _, v := range views {
		if v.LHS.Names(rel.Names) == "zip" {
			foundZip = true
			if v.Red != 4 {
				t.Errorf("zip view red = %d, want 4", v.Red)
			}
		}
	}
	if !foundZip {
		t.Error("zip LHS missing from city views")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range dhyfd.Algorithms() {
		got, err := dhyfd.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip failed for %v", a)
		}
		// Matching is case-insensitive.
		upper, err := dhyfd.ParseAlgorithm(strings.ToUpper(a.String()))
		if err != nil || upper != a {
			t.Errorf("case-insensitive round trip failed for %v", a)
		}
		mixed := strings.ToUpper(a.String()[:1]) + a.String()[1:]
		if got, err := dhyfd.ParseAlgorithm(mixed); err != nil || got != a {
			t.Errorf("mixed-case round trip failed for %v", a)
		}
	}
	if _, err := dhyfd.ParseAlgorithm("nope"); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if _, err := dhyfd.ParseAlgorithm(dhyfd.Algorithm(99).String()); err == nil {
		t.Error("want error for out-of-range algorithm rendering")
	}
}

// TestDiscoverUnknownAlgorithm: an Algorithm outside the eight constants
// is rejected before any set-up, with a Result that names it, whatever
// other options the call carries.
func TestDiscoverUnknownAlgorithm(t *testing.T) {
	rel := loadVoters(t)
	bad := dhyfd.Algorithm(99)
	for _, c := range []struct {
		name string
		opts []dhyfd.Option
	}{
		{"alone", nil},
		{"max-error", []dhyfd.Option{dhyfd.WithMaxError(0.01)}},
		{"spill-dir", []dhyfd.Option{dhyfd.WithSpillDir(t.TempDir())}},
	} {
		res, err := dhyfd.Discover(context.Background(), rel, append([]dhyfd.Option{dhyfd.WithAlgorithm(bad)}, c.opts...)...)
		if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%s: err = %v, want an unknown-algorithm error", c.name, err)
		}
		if res == nil || res.Algorithm != bad {
			t.Errorf("%s: Result = %+v, want one carrying %v", c.name, res, bad)
		}
	}
}

func TestDiscoverResultAndOptions(t *testing.T) {
	rel := loadVoters(t)
	want := brute.MinimalFDs(rel)
	for _, a := range dhyfd.Algorithms() {
		res, err := dhyfd.Discover(context.Background(), rel,
			dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Algorithm != a {
			t.Errorf("%v: Result.Algorithm = %v", a, res.Algorithm)
		}
		if !dep.Equal(res.FDs, want) {
			t.Errorf("%v disagrees with brute force", a)
		}
		if len(res.Stats.Phases) == 0 || res.Stats.Elapsed <= 0 {
			t.Errorf("%v: run stats not populated: %+v", a, res.Stats)
		}
		if res.Stats.FDs != int64(len(res.FDs)) {
			t.Errorf("%v: Stats.FDs = %d, len = %d", a, res.Stats.FDs, len(res.FDs))
		}
	}
}

func TestDiscoverCancellation(t *testing.T) {
	rel := loadVoters(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := dhyfd.Discover(ctx, rel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Error("partial Result must carry Cancelled stats")
	}
}

func TestDiscoverDeadline(t *testing.T) {
	rel := loadVoters(t)
	res, err := dhyfd.Discover(context.Background(), rel,
		dhyfd.WithDeadline(time.Now().Add(-time.Second)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Error("partial Result must carry Cancelled stats")
	}
}

func TestTopKOptionValidation(t *testing.T) {
	rel := loadVoters(t)
	if _, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithTopK(-1)); err == nil {
		t.Error("WithTopK(-1) must error")
	}
	if _, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithMaxError(1.5)); err == nil {
		t.Error("WithMaxError(1.5) must error")
	}
	if _, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithMaxError(-0.1)); err == nil {
		t.Error("WithMaxError(-0.1) must error")
	}
	if _, err := dhyfd.Discover(context.Background(), rel,
		dhyfd.WithAlgorithm(dhyfd.FDEP), dhyfd.WithMaxError(0.1)); err == nil {
		t.Error("WithMaxError on a row-based algorithm must error")
	}
	// WithTopK(0) and WithMaxError(0) are the exact defaults.
	res, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithTopK(0), dhyfd.WithMaxError(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked != nil {
		t.Error("WithTopK(0) must not rank")
	}
}

func TestDiscoverTopK(t *testing.T) {
	rel := loadVoters(t)
	res, err := dhyfd.Discover(context.Background(), rel, dhyfd.WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 3 || len(res.FDs) != 3 {
		t.Fatalf("top-3 returned %d ranked / %d FDs", len(res.Ranked), len(res.FDs))
	}
	for i := range res.Ranked {
		if !res.Ranked[i].FD.LHS.Equal(res.FDs[i].LHS) || !res.Ranked[i].FD.RHS.Equal(res.FDs[i].RHS) {
			t.Errorf("Ranked[%d] and FDs[%d] disagree", i, i)
		}
	}
	// state is constant: the top FD must be ∅ -> state with 5 occurrences.
	if res.Ranked[0].Counts.WithNulls != 5 {
		t.Errorf("top redundancy = %d, want 5 (∅ -> state)", res.Ranked[0].Counts.WithNulls)
	}
	if res.Stats.FDs != 3 {
		t.Errorf("Stats.FDs = %d, want 3", res.Stats.FDs)
	}
}

func TestTotalRedundancy(t *testing.T) {
	rel := loadVoters(t)
	can := dhyfd.CanonicalCover(rel.NumCols(), discoverDefault(t, rel))
	tot, _, err := dhyfd.TotalRedundancy(context.Background(), rel, can)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Values != 25 {
		t.Errorf("values = %d", tot.Values)
	}
	// At least the 5 state occurrences are redundant.
	if tot.Red < 5 {
		t.Errorf("red = %d, want >= 5", tot.Red)
	}
	if tot.PercentRed() <= 0 || tot.PercentRed() > 100 {
		t.Errorf("%%red = %f", tot.PercentRed())
	}
}

func TestNormalizationPublicAPI(t *testing.T) {
	rel := loadVoters(t)
	n := rel.NumCols()
	can := dhyfd.CanonicalCover(n, discoverDefault(t, rel))

	keys := dhyfd.CandidateKeys(n, can, 8)
	if len(keys) == 0 {
		t.Fatal("no keys")
	}
	for _, k := range keys {
		if !dhyfd.IsSuperkey(n, can, k) {
			t.Errorf("key %v is not a superkey", k)
		}
	}

	three := dhyfd.Synthesize3NF(n, can)
	if !dhyfd.LosslessDecomposition(n, can, three) {
		t.Error("3NF lossy")
	}
	if !dhyfd.PreservesDependencies(n, can, three) {
		t.Error("3NF must preserve dependencies")
	}

	bcnf := dhyfd.DecomposeBCNF(n, can)
	if !dhyfd.LosslessDecomposition(n, can, bcnf) {
		t.Error("BCNF lossy")
	}
}

func TestAttrSetOf(t *testing.T) {
	s := dhyfd.AttrSetOf(5, 1, 3)
	if !s.Contains(1) || !s.Contains(3) || s.Contains(0) {
		t.Errorf("AttrSetOf = %v", s)
	}
}

func TestCheckAndCoverIO(t *testing.T) {
	rel := loadVoters(t)
	can := dhyfd.CanonicalCover(rel.NumCols(), discoverDefault(t, rel))

	// Serialize and parse back.
	var buf strings.Builder
	if err := dhyfd.WriteCover(&buf, can, rel.Names); err != nil {
		t.Fatal(err)
	}
	parsed, err := dhyfd.ReadCover(strings.NewReader(buf.String()), rel.Names)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Equal(can, parsed) {
		t.Fatalf("cover IO round trip failed:\n%s", buf.String())
	}

	// The discovered cover holds on its own data.
	if violated := dhyfd.CheckCover(rel, can); len(violated) != 0 {
		t.Errorf("cover violated on own data: %v", violated)
	}

	// A fabricated FD name -> zip is violated (two berlins, two hamburgs
	// share names? no — names unique; use city -> id instead).
	bad := dhyfd.FD{LHS: dhyfd.AttrSetOf(rel.NumCols(), 2), RHS: dhyfd.AttrSetOf(rel.NumCols(), 0)}
	vs := dhyfd.Violations(rel, bad, 0)
	if len(vs) == 0 {
		t.Error("city -> id should be violated")
	}
	if dhyfd.HoldsOn(rel, bad) {
		t.Error("HoldsOn disagrees with Violations")
	}
}
