package check

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/faults"
	"repro/internal/partition"
)

// randomCover builds a mix of holding and violated FDs on r.
func randomCover(rng *rand.Rand, r interface {
	NumCols() int
}) []dep.FD {
	n := r.NumCols()
	fds := make([]dep.FD, 0, 12)
	for i := 0; i < 12; i++ {
		lhs := bitset.New(n)
		for a := 0; a < n; a++ {
			if rng.Intn(2) == 0 {
				lhs.Add(a)
			}
		}
		a := rng.Intn(n)
		lhs.Remove(a)
		if lhs.Count() == 0 {
			continue
		}
		fds = append(fds, dep.FD{LHS: lhs, RHS: bitset.FromAttrs(n, a)})
	}
	return fds
}

func assertSameReport(t *testing.T, name string, want, got VerifyReport) {
	t.Helper()
	if want.Checked != got.Checked || want.Violated != got.Violated {
		t.Fatalf("%s: report = %d/%d, want %d/%d", name, got.Checked, got.Violated, want.Checked, want.Violated)
	}
	if len(want.Sound) != len(got.Sound) {
		t.Fatalf("%s: |Sound| = %d, want %d", name, len(got.Sound), len(want.Sound))
	}
	for i := range want.Sound {
		if !want.Sound[i].LHS.Equal(got.Sound[i].LHS) || !want.Sound[i].RHS.Equal(got.Sound[i].RHS) {
			t.Fatalf("%s: Sound[%d] = %v, want %v", name, i, got.Sound[i], want.Sound[i])
		}
	}
}

// TestVerifyCoverWidthsMatchSerial pins the LHS-group fan-out: at every
// pool width, exact and g3-bounded verification reach the identical
// pass/fail decision per FD — so the report, its Sound list and its
// order equal the serial pass's.
func TestVerifyCoverWidthsMatchSerial(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		r := dataset.Random(rng, 200+rng.Intn(300), 3+rng.Intn(3), 1+rng.Intn(5))
		fds := randomCover(rng, r)
		for _, maxViol := range []int{0, 3, 25} {
			want, err := VerifyCover(ctx, r, fds, VerifyOptions{MaxViolations: maxViol})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4, 16} {
				got, err := VerifyCover(ctx, r, fds, VerifyOptions{MaxViolations: maxViol, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("exact workers=%d", workers)
				if maxViol > 0 {
					name = fmt.Sprintf("g3 workers=%d", workers)
				}
				assertSameReport(t, name, want, got)
			}
		}
	}
}

// TestVerifyCoverParallelCacheInterchangeable: the fanned-out verifier
// must fill a cache interchangeably with the serial one — the same
// partitions land in it, byte-identical, so a second serial pass over a
// cache filled at width 3 hits every entry.
func TestVerifyCoverParallelCacheInterchangeable(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	r := dataset.Random(rng, 400, 4, 3)
	fds := randomCover(rng, r)

	serialCache := partition.NewCache(1<<24, nil)
	parCache := partition.NewCache(1<<24, nil)
	want, err := VerifyCover(ctx, r, fds, VerifyOptions{Cache: serialCache})
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyCover(ctx, r, fds, VerifyOptions{Cache: parCache, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "cached", want, got)

	s0 := parCache.Stats()
	if _, err := VerifyCover(ctx, r, fds, VerifyOptions{Cache: parCache}); err != nil {
		t.Fatal(err)
	}
	d := parCache.Stats().Delta(s0)
	if d.Misses != 0 {
		t.Fatalf("serial rerun over a cache filled at width 3 missed %d times", d.Misses)
	}
}

// TestVerifyCoverBuildsOncePerLHS pins the grouping: five FDs over two
// LHSs take π_LHS twice, so a partition.build plan armed at the third
// build never fires, and every FD is decided exactly as Holds decides it.
func TestVerifyCoverBuildsOncePerLHS(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	r := dataset.Random(rng, 300, 5, 3)
	n := r.NumCols()
	fds := []dep.FD{
		fd(n, []int{0}, 3), fd(n, []int{1, 2}, 0), fd(n, []int{0}, 4),
		fd(n, []int{1, 2}, 3), fd(n, []int{1, 2}, 4),
	}
	defer faults.Reset()
	faults.Arm(faults.PartitionBuild, faults.Plan{Kind: faults.KindError, N: 3})
	rep, err := VerifyCover(context.Background(), r, fds, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !faults.Armed(faults.PartitionBuild) {
		t.Fatal("verifying two LHSs built a third partition")
	}
	faults.Reset()
	var want []dep.FD
	for _, f := range fds {
		if Holds(r, f) {
			want = append(want, f)
		}
	}
	assertSameReport(t, "grouped", VerifyReport{Checked: 5, Violated: 5 - len(want), Sound: want}, rep)
}

// TestVerifyCoverFaultKeepsVerifiedFDs: a partition.build injection
// mid-run on a two-worker verify surfaces as the injection error, and
// the partial report keeps only FDs that hold.
func TestVerifyCoverFaultKeepsVerifiedFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	r := dataset.Random(rng, 300, 5, 3)
	fds := randomCover(rng, r)
	defer faults.Reset()
	faults.Arm(faults.PartitionBuild, faults.Plan{Kind: faults.KindError, N: 2})
	rep, err := VerifyCover(context.Background(), r, fds, VerifyOptions{Workers: 2})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the partition.build injection", err)
	}
	if faults.Armed(faults.PartitionBuild) {
		t.Fatal("plan did not fire")
	}
	for _, f := range rep.Sound {
		if !Holds(r, f) {
			t.Errorf("partial report kept violated FD %v", f)
		}
	}
	if len(rep.Sound)+rep.Violated >= len(fds) {
		t.Errorf("faulted verify decided %d+%d of %d FDs, want fewer", len(rep.Sound), rep.Violated, len(fds))
	}
}

// TestVerifyCoverCancelled: a cancelled context stops the group fan-out
// with the context error and a conservative partial report.
func TestVerifyCoverCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r := dataset.Random(rng, 300, 4, 3)
	fds := randomCover(rng, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := VerifyCover(ctx, r, fds, VerifyOptions{Workers: 2})
	if err == nil {
		t.Fatal("cancelled verify returned nil error")
	}
	if len(rep.Sound) != 0 {
		t.Fatalf("cancelled-before-start verify proved %d FDs sound", len(rep.Sound))
	}
}
