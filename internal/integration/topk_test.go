package integration

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
)

// latticeAlgorithms are the drivers with the fused top-k heap and
// approximate validation; the row-based ones satisfy WithTopK by ranking
// their full cover.
var latticeAlgorithms = []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD}

// TestTopKEquivalenceMatrix pins the fused search's defining property on
// every benchmark shape, every algorithm and two k values: WithTopK(k)
// must be byte-identical — same FDs, same order, same redundancy counts —
// to discovering the full cover, ranking it and truncating to k.
func TestTopKEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	for _, b := range dataset.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cols := b.DefaultCols
			if cols > 10 {
				cols = 10
			}
			r := b.Generate(120, cols)
			full, err := dhyfd.Discover(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			reference, _, err := dhyfd.Rank(ctx, r, full.FDs)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range dhyfd.Algorithms() {
				for _, k := range []int{1, 10} {
					res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithTopK(k))
					if err != nil {
						t.Fatalf("%v k=%d: %v", a, k, err)
					}
					want := reference
					if len(want) > k {
						want = want[:k]
					}
					if len(res.Ranked) != len(want) {
						t.Fatalf("%v k=%d: %d ranked FDs, want %d", a, k, len(res.Ranked), len(want))
					}
					for i := range want {
						g, w := res.Ranked[i], want[i]
						if !g.FD.LHS.Equal(w.FD.LHS) || !g.FD.RHS.Equal(w.FD.RHS) || g.Counts != w.Counts {
							t.Fatalf("%v k=%d: Ranked[%d] = %v %+v, want %v %+v",
								a, k, i, g.FD.Format(r.Names), g.Counts, w.FD.Format(r.Names), w.Counts)
						}
						if !res.FDs[i].LHS.Equal(w.FD.LHS) || !res.FDs[i].RHS.Equal(w.FD.RHS) {
							t.Fatalf("%v k=%d: FDs[%d] disagrees with Ranked[%d]", a, k, i, i)
						}
					}
					if res.Stats.FDs != int64(len(want)) {
						t.Errorf("%v k=%d: Stats.FDs = %d, want %d", a, k, res.Stats.FDs, len(want))
					}
				}
			}
		})
	}
}

// bruteApproxCover computes the minimal approximate FDs of r directly from
// the g3 definition — the oracle the drivers' fused approximate search
// must reproduce.
func bruteApproxCover(r *relation.Relation, maxViol int) []dep.FD {
	n := r.NumCols()
	valid := map[int]map[string]bool{} // rhs -> lhs key -> g3 ok
	keys := map[string]bitset.Set{}
	var sets []bitset.Set
	for mask := 0; mask < 1<<n; mask++ {
		s := bitset.New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s.Add(i)
			}
		}
		sets = append(sets, s)
		keys[s.Key()] = s
	}
	for a := 0; a < n; a++ {
		valid[a] = map[string]bool{}
		for _, s := range sets {
			if s.Contains(a) {
				continue
			}
			p := partition.ForAttrs(s, r.Cols, r.Cards)
			valid[a][s.Key()] = partition.NewG3Counter(0).Violations(p, r.Cols[a], r.Cards[a], maxViol) <= maxViol
		}
	}
	var out []dep.FD
	for a := 0; a < n; a++ {
		for _, s := range sets {
			if s.Contains(a) || !valid[a][s.Key()] {
				continue
			}
			minimal := true
			for b := s.Next(0); b >= 0 && minimal; b = s.Next(b + 1) {
				gen := s.Clone()
				gen.Remove(b)
				if valid[a][gen.Key()] {
					minimal = false
				}
			}
			if minimal {
				rhs := bitset.New(n)
				rhs.Add(a)
				out = append(out, dep.FD{LHS: s.Clone(), RHS: rhs})
			}
		}
	}
	dep.Sort(out)
	return out
}

// TestMaxErrorAgainstBruteOracle checks every lattice algorithm's
// approximate cover against the exponential g3 oracle on small relations.
func TestMaxErrorAgainstBruteOracle(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"ncvoter", "flight"} {
		b, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := b.Generate(120, 6)
		for _, eps := range []float64{0.01, 0.05} {
			maxViol := int(eps * float64(r.NumRows()))
			want := bruteApproxCover(r, maxViol)
			for _, a := range latticeAlgorithms {
				res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithMaxError(eps))
				if err != nil {
					t.Fatalf("%s/%v eps=%v: %v", name, a, eps, err)
				}
				if !dep.Equal(res.FDs, want) {
					only, other := dep.Diff(res.FDs, want, r.Names)
					t.Errorf("%s/%v eps=%v: approximate cover disagrees with oracle.\nonly algo: %v\nonly oracle: %v",
						name, a, eps, only, other)
				}
			}
		}
	}
}

// TestMaxErrorZeroIsExact: eps = 0 must take the exact code path and
// reproduce the exact cover byte for byte.
func TestMaxErrorZeroIsExact(t *testing.T) {
	ctx := context.Background()
	b, err := dataset.ByName("ncvoter")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(120, 8)
	for _, a := range latticeAlgorithms {
		exact, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a))
		if err != nil {
			t.Fatal(err)
		}
		zero, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithMaxError(0))
		if err != nil {
			t.Fatal(err)
		}
		if !dep.Equal(exact.FDs, zero.FDs) {
			t.Errorf("%v: WithMaxError(0) changed the cover", a)
		}
	}
}

// TestTopKWithMaxError combines both options: the fused approximate top-k
// must equal ranking the full approximate cover and truncating.
func TestTopKWithMaxError(t *testing.T) {
	ctx := context.Background()
	b, err := dataset.ByName("flight")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(120, 8)
	const eps = 0.05
	for _, a := range latticeAlgorithms {
		full, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithMaxError(eps))
		if err != nil {
			t.Fatal(err)
		}
		reference, _, err := dhyfd.Rank(ctx, r, full.FDs)
		if err != nil {
			t.Fatal(err)
		}
		if len(reference) > 5 {
			reference = reference[:5]
		}
		res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithMaxError(eps), dhyfd.WithTopK(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ranked) != len(reference) {
			t.Fatalf("%v: %d ranked, want %d", a, len(res.Ranked), len(reference))
		}
		for i := range reference {
			if !res.Ranked[i].FD.LHS.Equal(reference[i].FD.LHS) || !res.Ranked[i].FD.RHS.Equal(reference[i].FD.RHS) {
				t.Fatalf("%v: Ranked[%d] = %v, want %v", a, i,
					res.Ranked[i].FD.Format(r.Names), reference[i].FD.Format(r.Names))
			}
		}
	}
}

// TestTopKCancellationMidPrune arms a delay on the top-k pruning fault
// site so the deadline fires while the search is inside a bound check; the
// partial top-k that comes back must be sound.
func TestTopKCancellationMidPrune(t *testing.T) {
	b, err := dataset.ByName("ncvoter")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(200, 10)
	for _, a := range latticeAlgorithms {
		t.Run(fmt.Sprint(a), func(t *testing.T) {
			defer faults.Reset()
			faults.Arm(faults.TopKPrune, faults.Plan{Kind: faults.KindDelay, N: 1, Delay: 150 * time.Millisecond})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			res, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithTopK(3))
			if res == nil {
				t.Fatal("nil result")
			}
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want deadline or clean finish", err)
			}
			if err != nil && !res.Stats.Cancelled {
				t.Error("cancelled run must report Cancelled")
			}
			if len(res.FDs) > 3 {
				t.Fatalf("partial top-3 has %d FDs", len(res.FDs))
			}
			// Soundness: whatever made it into the heap holds on the data.
			for _, f := range res.FDs {
				p := partition.ForAttrs(f.LHS, r.Cols, r.Cards)
				for rhs := f.RHS.Next(0); rhs >= 0; rhs = f.RHS.Next(rhs + 1) {
					if partition.NewG3Counter(0).Violations(p, r.Cols[rhs], r.Cards[rhs], 0) != 0 {
						t.Errorf("unsound FD in partial top-k: %v", f.Format(r.Names))
					}
				}
			}
		})
	}
}
