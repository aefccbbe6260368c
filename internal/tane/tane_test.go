package tane

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/topk"
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
// cache, the singles and π of each emitted FD's LHS (a level product:
// the smaller parent refined by the other's last attribute), equals π_X
// built directly by ForAttrs, and the cache holds nothing else.
func TestLevelPartitionsMatchForAttrs(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for _, b := range dataset.All() {
		r := b.Generate(200, 10)
		for _, workers := range []int{1, 4} {
			cache := partition.NewCache(1<<30, nil)
			fds, _, err := Run(ctx, r, Config{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", b.Name, workers, err)
			}
			want := map[string]bool{}
			for a := range r.NumCols() {
				want[bitset.FromAttrs(r.NumCols(), a).Key()] = true
			}
			for _, fd := range fds {
				if !fd.LHS.IsEmpty() {
					want[fd.LHS.Key()] = true
				}
			}
			if cache.Len() != len(want) {
				t.Errorf("%s workers=%d: cache holds %d partitions, want the %d singles and emitted LHSs",
					b.Name, workers, cache.Len(), len(want))
			}
			for _, x := range cache.Keys(0) {
				if !want[x.Key()] {
					t.Errorf("%s workers=%d: cached π_%v is neither a single nor an emitted LHS", b.Name, workers, x.Attrs())
				}
				got := cache.Get(x)
				if !got.Equal(partition.ForAttrs(x, r.Cols, r.Cards)) {
					t.Errorf("%s workers=%d: cached π_%v differs from ForAttrs", b.Name, workers, x.Attrs())
				}
				checked++
			}
		}
	}
	t.Logf("%d partitions checked", checked)
}

// flightCounters is a run's cover digest and the RunStats counters TANE
// accumulates itself.
type flightCounters struct {
	sha                                            string
	levels, rowsScanned, built, refined, validated int64
	invalidated, fds                               int64
}

func countersOf(r *relation.Relation, fds []dep.FD, rs *engine.RunStats) flightCounters {
	return flightCounters{
		sha:         fmt.Sprintf("%x", sha256.Sum256([]byte(dep.FormatAll(fds, r.Names)))),
		levels:      rs.Levels,
		rowsScanned: rs.RowsScanned,
		built:       rs.PartitionsBuilt,
		refined:     rs.PartitionsRefined,
		validated:   rs.CandidatesValidated,
		invalidated: rs.Invalidated,
		fds:         rs.FDs,
	}
}

func flight(t *testing.T) *relation.Relation {
	t.Helper()
	b, err := dataset.ByName("flight")
	if err != nil {
		t.Fatal(err)
	}
	return b.Generate(500, 17)
}

// TestFlightCounterPins pins TANE's cover and work counters on flight
// 500×17, the shape fdperf's rank-lattice workload runs, exactly: a
// change to the lattice's bookkeeping must visit the same candidates,
// validate the same (node, RHS) pairs and build the same partitions. The
// counters do not depend on the pool width.
func TestFlightCounterPins(t *testing.T) {
	r := flight(t)
	pins := []struct {
		name string
		cfg  func() Config
		want flightCounters
	}{
		{"plain", func() Config { return Config{} },
			flightCounters{"3d09f1a5ab13e0fbc6ad6276734e10d4d0b4ac4ed458fb04a060e43296325bec",
				11, 2158520, 27010, 71675, 161695, 159450, 3402}},
		{"max-violations", func() Config { return Config{MaxViolations: 10} },
			flightCounters{"73e86e248755246a6b891a48b8a6a49a86a7172a4b94be6b4edeb3db4f47011e",
				16, 52345119, 131070, 0, 407513, 391580, 15933}},
		{"topk", func() Config { return Config{TopK: topk.New(10)} },
			flightCounters{"6fe798a2090b5cf7eb21eac4cd70ee69c4e23db46d3e2e1c41302673f8b72f2f",
				9, 2013160, 21406, 22627, 132466, 131588, 10}},
	}
	for _, p := range pins {
		for _, workers := range []int{1, 3} {
			p, workers := p, workers
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(t *testing.T) {
				t.Parallel()
				cfg := p.cfg()
				cfg.Workers = workers
				fds, rs, err := Run(context.Background(), r, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := countersOf(r, fds, rs); got != p.want {
					t.Errorf("got  %+v\nwant %+v", got, p.want)
				}
			})
		}
	}
}

// TestResumeKeepsCounters kills a run checkpointing at every level
// boundary with an engine.worker panic at several depths, then resumes
// it: the resumed run rebuilds the restored level's partitions and
// co-atom links, and must return the uninterrupted cover with the same
// counters, the restored bases plus the work after the boundary.
func TestResumeKeepsCounters(t *testing.T) {
	r := flight(t)
	ctx := context.Background()
	fds, rs, err := Run(ctx, r, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := countersOf(r, fds, rs)
	fp := runstate.FingerprintOf(r, "tane", 0, 0)
	for _, n := range []int{50, 500, 3000, 10000, 20000} {
		t.Run(fmt.Sprintf("kill@%d", n), func(t *testing.T) {
			defer faults.Reset()
			dir := t.TempDir()
			cp, err := runstate.NewCheckpointer(dir, time.Nanosecond, fp)
			if err != nil {
				t.Fatal(err)
			}
			faults.Arm(faults.EngineWorker, faults.Plan{Kind: faults.KindPanic, N: n})
			if _, _, err := Run(ctx, r, Config{Workers: 1, Checkpoint: cp}); err == nil || faults.Armed(faults.EngineWorker) {
				t.Fatalf("the fault did not kill the run (err %v)", err)
			}
			faults.Reset()
			snap, err := runstate.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			fds, rs, err := Run(ctx, r, Config{Workers: 1, Resume: snap})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := countersOf(r, fds, rs); got != want {
				t.Errorf("resumed  %+v\nuninterrupted %+v", got, want)
			}
		})
	}
}

// TestProbesOnlyPrefilledCache: a run over a cache that started empty
// looks up only the singles, since no level product can be cached before
// TANE builds it, and a second run over the cache the first one filled
// takes the products it holds and returns the same cover.
func TestProbesOnlyPrefilledCache(t *testing.T) {
	r := flight(t)
	ctx := context.Background()
	cache := partition.NewCache(64<<20, nil)
	fds, rs, err := Run(ctx, r, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(r.NumCols()); rs.CacheMisses != n || rs.CacheHits != 0 {
		t.Errorf("first run: %d hits, %d misses, want 0 and one per column (%d)", rs.CacheHits, rs.CacheMisses, n)
	}
	again, rs2, err := Run(ctx, r, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.CacheHits <= int64(r.NumCols()) {
		t.Errorf("second run: %d hits, want the singles and some level products", rs2.CacheHits)
	}
	if rs2.PartitionsBuilt >= rs.PartitionsBuilt {
		t.Errorf("second run built %d partitions, the first %d: no product came from the cache", rs2.PartitionsBuilt, rs.PartitionsBuilt)
	}
	if !dep.Equal(again, fds) {
		t.Errorf("second run's cover differs: %d vs %d FDs", len(again), len(fds))
	}
}
