package core

import (
	"context"
	"testing"

	"repro/internal/brute"
	"repro/internal/dep"
	"repro/internal/fdep"
	"repro/internal/relation"
)

// FuzzDiscoverMatchesBrute decodes arbitrary bytes into a small relation
// and checks DHyFD (and FDEP2 as a second, independent implementation)
// against the exponential oracle. Run with:
//
//	go test -fuzz=FuzzDiscoverMatchesBrute ./internal/core
//
// Without -fuzz the seed corpus still runs as a regression test.
func FuzzDiscoverMatchesBrute(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 0})
	f.Add([]byte{1, 9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeRelation(data)
		if r == nil {
			return
		}
		got := discover(r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("dhyfd vs brute on %dx%d: only dhyfd %v, only brute %v",
				r.NumRows(), r.NumCols(), a, b)
		}
		second, _, err := fdep.Run(context.Background(), r, fdep.Sorted, fdep.Config{})
		if err != nil || !dep.Equal(second, want) {
			t.Fatalf("fdep2 vs brute diverge")
		}
	})
}

// decodeRelation interprets fuzz bytes as: first byte = number of columns
// (1..6), remaining bytes = row-major codes modulo a small cardinality.
// Returns nil when the input is too small to form at least one row.
func decodeRelation(data []byte) *relation.Relation {
	if len(data) < 2 {
		return nil
	}
	ncols := int(data[0])%6 + 1
	body := data[1:]
	nrows := len(body) / ncols
	if nrows < 1 {
		return nil
	}
	if nrows > 48 {
		nrows = 48 // keep the oracle cheap
	}
	cols := make([][]int32, ncols)
	for c := 0; c < ncols; c++ {
		col := make([]int32, nrows)
		for i := 0; i < nrows; i++ {
			col[i] = int32(body[i*ncols+c] % 5)
		}
		cols[c] = col
	}
	return relation.FromCodes(nil, cols, nil, relation.NullEqNull)
}
