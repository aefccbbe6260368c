package integration

import (
	"context"
	"testing"

	dhyfd "repro"
	"repro/internal/check"
	"repro/internal/dep"
	"repro/internal/relation"
	"repro/internal/tane"
)

// FuzzDiscoverSmall throws arbitrary tiny relations at the full Discover
// pipeline: the run must never panic, every emitted FD must hold on the
// data, and the cover must agree with an independent TANE run.
func FuzzDiscoverSmall(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(2), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(4), uint8(1))
	f.Add([]byte{0, 0, 1, 1, 0, 1}, uint8(3), uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, ncols, nrows uint8) {
		cols := 1 + int(ncols)%4
		rows := int(nrows) % 13
		codes := make([][]int32, cols)
		for c := range codes {
			codes[c] = make([]int32, rows)
			for r := 0; r < rows; r++ {
				b := byte(0)
				if i := c*rows + r; i < len(data) {
					b = data[i]
				}
				codes[c][r] = int32(b) % 5
			}
		}
		rel := relation.FromCodes(nil, codes, nil, relation.NullEqNull)

		res, err := dhyfd.Discover(context.Background(), rel)
		if err != nil {
			t.Fatalf("Discover failed on a healthy relation: %v", err)
		}
		for _, fd := range res.FDs {
			if !check.Holds(rel, fd) {
				t.Fatalf("unsound FD %v on %d×%d relation", fd.Format(rel.Names), rows, cols)
			}
		}
		want, _, err := tane.Run(context.Background(), rel, tane.Config{})
		if err != nil {
			t.Fatalf("tane failed: %v", err)
		}
		if !dep.Equal(res.FDs, want) {
			t.Fatalf("covers disagree on %d×%d relation: dhyfd %d FDs, tane %d FDs", rows, cols, len(res.FDs), len(want))
		}
	})
}
