package ranking

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
)

// Column indexes of the ncvoter snippet.
const (
	voterID = iota
	firstName
	lastName
	nameSuffix
	gender
	streetAddress
	city
	state
	zipCode
)

// discover returns DHyFD's left-reduced cover of r.
func discover(r *relation.Relation) []dep.FD {
	fds, _, err := core.Run(context.Background(), r, core.Config{})
	if err != nil {
		panic(err)
	}
	return fds
}

// must unwraps a kernel's result. The tests pass no cancellable context,
// so an error is a bug and panics.
func must[T any](v T, _ Stats, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func fdOf(n int, lhs []int, rhs ...int) dep.FD {
	return dep.FD{LHS: bitset.FromAttrs(n, lhs...), RHS: bitset.FromAttrs(n, rhs...)}
}

// TestTableOneSigmas pins the paper's σ1…σ4 redundancy counts, evaluated on
// the 14-row Table I snippet.
func TestTableOneSigmas(t *testing.T) {
	r := dataset.NCVoterSnippet(relation.NullEqNull)
	rk := New(r)
	n := r.NumCols()

	// σ1 = ∅ → state: every state occurrence is redundant (14 rows).
	c := rk.FD(fdOf(n, nil, state))
	if c.WithNulls != 14 || c.NoNullRHS != 14 || c.NoNulls != 14 {
		t.Errorf("σ1 counts = %+v, want all 14", c)
	}

	// σ2 = last_name, zip_code → city: five duplicated (last_name, zip)
	// pairs cover 10 rows — the bold occurrences of Table I.
	c = rk.FD(fdOf(n, []int{lastName, zipCode}, city))
	if c.WithNulls != 10 || c.NoNullRHS != 10 {
		t.Errorf("σ2 counts = %+v, want 10", c)
	}

	// σ3 = last_name, gender, zip_code → name_suffix: clusters (cox,m,28562)
	// and (johnson,m,27820) cover 4 rows, but every name_suffix is null, so
	// excluding nulls drops the count to 0 — the paper's point that σ3 is
	// likely accidental.
	c = rk.FD(fdOf(n, []int{lastName, gender, zipCode}, nameSuffix))
	if c.WithNulls != 4 {
		t.Errorf("σ3 with nulls = %d, want 4", c.WithNulls)
	}
	if c.NoNullRHS != 0 || c.NoNulls != 0 {
		t.Errorf("σ3 without nulls = %+v, want 0", c)
	}

	// σ4 = voter_id → state: the duplicate voter id 131 covers 2 rows.
	c = rk.FD(fdOf(n, []int{voterID}, state))
	if c.WithNulls != 2 || c.NoNullRHS != 2 {
		t.Errorf("σ4 counts = %+v, want 2", c)
	}
}

func TestRankOrdersDescending(t *testing.T) {
	r := dataset.NCVoterSnippet(relation.NullEqNull)
	n := r.NumCols()
	fds := []dep.FD{
		fdOf(n, []int{voterID}, state),
		fdOf(n, nil, state),
		fdOf(n, []int{lastName, zipCode}, city),
	}
	ranked := must(RankCtx(context.Background(), r, fds, Config{}))
	if len(ranked) != 3 {
		t.Fatalf("len = %d", len(ranked))
	}
	if ranked[0].Counts.WithNulls != 14 || ranked[1].Counts.WithNulls != 10 || ranked[2].Counts.WithNulls != 2 {
		t.Errorf("order wrong: %v %v %v", ranked[0].Counts, ranked[1].Counts, ranked[2].Counts)
	}
}

// TestRedundancyOracle cross-checks the count against the definition: t(A)
// is redundant for X→A iff another tuple shares t's X-projection.
func TestRedundancyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		r := dataset.Random(rng, 5+rng.Intn(40), 2+rng.Intn(4), 1+rng.Intn(4))
		n := r.NumCols()
		rk := New(r)
		// Pick a random FD shape (validity is irrelevant to the count's
		// definition; the measure applies to valid FDs but is well-defined
		// for any X, A).
		lhs := bitset.New(n)
		for a := 0; a < n; a++ {
			if rng.Intn(3) == 0 {
				lhs.Add(a)
			}
		}
		a := rng.Intn(n)
		lhs.Remove(a)
		rhs := bitset.New(n)
		rhs.Add(a)
		got := rk.FD(dep.FD{LHS: lhs, RHS: rhs}).WithNulls

		want := 0
		for i := 0; i < r.NumRows(); i++ {
			for j := 0; j < r.NumRows(); j++ {
				if i == j {
					continue
				}
				match := true
				for b := lhs.Next(0); b >= 0; b = lhs.Next(b + 1) {
					if r.Cols[b][i] != r.Cols[b][j] {
						match = false
						break
					}
				}
				if match {
					want++
					break
				}
			}
		}
		if got != want {
			t.Fatalf("trial %d: count = %d, oracle = %d (lhs %v -> %d)", trial, got, want, lhs, a)
		}
	}
}

func TestTotalsDedupAcrossFDs(t *testing.T) {
	// Two FDs with the same RHS column mark overlapping occurrences; totals
	// must count each occurrence once.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1},
		{0, 0, 1},
		{5, 5, 7},
	}, nil, relation.NullEqNull)
	n := r.NumCols()
	fds := []dep.FD{fdOf(n, []int{0}, 2), fdOf(n, []int{1}, 2)}
	tot := must(TotalsCtx(context.Background(), r, fds, Config{}))
	if tot.Values != 9 {
		t.Errorf("values = %d", tot.Values)
	}
	// Rows 0,1 of column 2 are redundant (cluster via col0 and via col1).
	if tot.Red != 2 || tot.RedWithNulls != 2 {
		t.Errorf("totals = %+v, want 2", tot)
	}
	if tot.PercentRed() < 22 || tot.PercentRed() > 23 {
		t.Errorf("%%red = %f", tot.PercentRed())
	}
}

func TestTotalsOnDiscoveredCover(t *testing.T) {
	// End-to-end: discover, canonicalize, total. Constant column makes the
	// whole column redundant.
	rng := rand.New(rand.NewSource(62))
	r := dataset.Random(rng, 30, 4, 2)
	fds := discover(r)
	can := cover.Canonical(r.NumCols(), fds)
	tot := must(TotalsCtx(context.Background(), r, can, Config{}))
	if tot.Values != 120 {
		t.Fatalf("values = %d", tot.Values)
	}
	if tot.RedWithNulls < tot.Red {
		t.Errorf("red+0 < red: %+v", tot)
	}
	if tot.RedWithNulls > tot.Values {
		t.Errorf("red+0 > values: %+v", tot)
	}
	// Card-2 columns over 30 rows: every column is dense with duplicates;
	// with any valid FDs at all, some redundancy must show up.
	if len(can) > 0 && tot.RedWithNulls == 0 {
		t.Errorf("cover %d FDs but zero redundancy", len(can))
	}
}

// TestTotalsEqualsImpliedFDMarking: marking along a canonical cover marks
// the same occurrences as marking along the full left-reduced cover,
// because agreement propagates over closures.
func TestTotalsCoverInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		r := dataset.Random(rng, 10+rng.Intn(30), 2+rng.Intn(4), 1+rng.Intn(3))
		lr := brute.MinimalFDs(r)
		can := cover.Canonical(r.NumCols(), lr)
		t1 := must(TotalsCtx(context.Background(), r, lr, Config{}))
		t2 := must(TotalsCtx(context.Background(), r, can, Config{}))
		if t1 != t2 {
			t.Fatalf("trial %d: totals differ: %+v vs %+v", trial, t1, t2)
		}
	}
}

func TestHistogram(t *testing.T) {
	counts := []int{0, 0, 5, 10, 40, 100}
	buckets := Histogram(counts)
	if len(buckets) != len(HistogramThresholds) {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Max != 0 || buckets[0].FDs != 2 {
		t.Errorf("zero bucket = %+v", buckets[0])
	}
	total := 0
	for _, b := range buckets {
		total += b.FDs
	}
	if total != len(counts) {
		t.Errorf("buckets cover %d FDs, want %d", total, len(counts))
	}
	// Max count lands in the last bucket.
	if buckets[len(buckets)-1].Max != 100 {
		t.Errorf("last bucket max = %d", buckets[len(buckets)-1].Max)
	}
}

func TestHistogramEmptyAndUniform(t *testing.T) {
	buckets := Histogram(nil)
	total := 0
	for _, b := range buckets {
		total += b.FDs
	}
	if total != 0 {
		t.Errorf("empty histogram counted %d", total)
	}
	// All-zero counts all land in the first bucket.
	buckets = Histogram([]int{0, 0, 0})
	if buckets[0].FDs != 3 {
		t.Errorf("zero counts bucket = %+v", buckets[0])
	}
}

func TestForColumn(t *testing.T) {
	r := dataset.NCVoterSnippet(relation.NullEqNull)
	n := r.NumCols()
	fds := []dep.FD{
		fdOf(n, []int{lastName, zipCode}, city),
		fdOf(n, []int{voterID}, city, state),
		fdOf(n, []int{gender}, state), // not about city: filtered out
	}
	views := must(ForColumnCtx(context.Background(), r, fds, city, Config{}))
	if len(views) != 2 {
		t.Fatalf("views = %d", len(views))
	}
	if views[0].Red != 10 {
		t.Errorf("top view red = %d, want 10 (last_name, zip)", views[0].Red)
	}
	if views[1].Red != 2 {
		t.Errorf("second view red = %d, want 2 (voter_id)", views[1].Red)
	}
	// The snippet has no nulls on these LHSs or city, so red == red-0.
	if views[0].RedNoNN != views[0].Red {
		t.Errorf("red-0 = %d, want %d", views[0].RedNoNN, views[0].Red)
	}
}

func TestNoNullsReclustersLHS(t *testing.T) {
	// LHS column with nulls: cluster {0,1} exists only via null agreement;
	// after excluding null-LHS rows it dissolves.
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{
		{"", "x"},
		{"", "x"},
		{"1", "y"},
		{"1", "y"},
	}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rk := New(r)
	c := rk.FD(fdOf(2, []int{0}, 1))
	if c.WithNulls != 4 || c.NoNullRHS != 4 {
		t.Errorf("with nulls = %+v, want 4", c)
	}
	if c.NoNulls != 2 {
		t.Errorf("no-nulls = %d, want 2 (only the 1-cluster)", c.NoNulls)
	}
}
