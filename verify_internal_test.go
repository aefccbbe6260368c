package dhyfd

import (
	"context"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/relation"
)

func verifyTestRelation(t *testing.T) *Relation {
	t.Helper()
	rows := [][]string{
		{"1", "a", "x"},
		{"2", "a", "y"},
		{"3", "b", "x"},
		{"1", "b", "y"}, // col0 repeats, so col0 → col1 is violated
	}
	r, err := FromRows([]string{"p", "q", "s"}, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestVerifySoundnessDropsViolatedFDs feeds the post-run verifier a cover
// with a planted violation: the bogus FD must be dropped and the counters
// must record the check.
func TestVerifySoundnessDropsViolatedFDs(t *testing.T) {
	r := verifyTestRelation(t)
	valid := dep.FD{LHS: bitset.FromAttrs(3, 1, 2), RHS: bitset.FromAttrs(3, 0)}
	bogus := dep.FD{LHS: bitset.FromAttrs(3, 0), RHS: bitset.FromAttrs(3, 1)}
	res := &Result{FDs: []dep.FD{valid, bogus}}
	res.Stats.Degrade("test")

	if err := verifySoundness(context.Background(), r, res, nil, 0, 2); err != nil {
		t.Fatal(err)
	}

	if len(res.FDs) != 1 || !res.FDs[0].LHS.Equal(valid.LHS) {
		t.Fatalf("FDs after verification: %v", res.FDs)
	}
	if res.Stats.Counters["postverify_checked"] != 2 || res.Stats.Counters["postverify_dropped"] != 1 {
		t.Errorf("counters = %v", res.Stats.Counters)
	}
	if res.Stats.FDs != 1 {
		t.Errorf("Stats.FDs = %d", res.Stats.FDs)
	}
}

// TestVerifySoundnessChecksTail: the gate checks every row, so a
// violation past the first 100,000 rows still drops the FD. a → b holds
// on rows 0..100,003 and breaks at row 100,004.
func TestVerifySoundnessChecksTail(t *testing.T) {
	const rows = 100_005
	a := make([]int32, rows)
	b := make([]int32, rows)
	for i := range a {
		a[i] = int32(i % 1000)
		b[i] = a[i]
	}
	b[rows-1] = 1000
	r := relation.FromCodes([]string{"a", "b"}, [][]int32{a, b}, nil, relation.NullEqNull)
	res := &Result{FDs: []dep.FD{{LHS: bitset.FromAttrs(2, 0), RHS: bitset.FromAttrs(2, 1)}}}
	res.Stats.Degrade("test")

	if err := verifySoundness(context.Background(), r, res, nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 0 {
		t.Fatalf("a -> b survived verification despite its violation at row %d", rows-1)
	}
	if res.Stats.Counters["postverify_checked"] != 1 || res.Stats.Counters["postverify_dropped"] != 1 {
		t.Errorf("counters = %v", res.Stats.Counters)
	}
}

// TestWithoutPostVerifyOption: the private escape hatch hands tests the
// raw degraded output without the soundness gate rewriting it.
func TestWithoutPostVerifyOption(t *testing.T) {
	r := verifyTestRelation(t)
	res, err := Discover(context.Background(), r, WithMemoryBudget(0), withoutPostVerify())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Error("zero budget should degrade")
	}
	if res.Stats.Counters["postverify_checked"] != 0 {
		t.Errorf("verifier ran despite withoutPostVerify: %v", res.Stats.Counters)
	}
}
