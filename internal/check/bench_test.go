package check

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// BenchmarkVerifyCover times the post-run soundness gate on ncvoter
// 200k × 10 and its DHyFD cover, uncached and on every row, at pool
// widths 1 and 2.
func BenchmarkVerifyCover(b *testing.B) {
	bm, err := dataset.ByName("ncvoter")
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(200_000, 10)
	ctx := context.Background()
	fds, _, err := core.Run(ctx, r, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("ncvoter-200000x10-%dfds/workers=%d", len(fds), workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := VerifyCover(ctx, r, fds, VerifyOptions{Workers: workers})
				if err != nil || rep.Violated != 0 {
					b.Fatalf("verify: %d violated, err %v", rep.Violated, err)
				}
			}
		})
	}
}
