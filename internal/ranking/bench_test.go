package ranking

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/partition"
	"repro/internal/relation"
)

// coverFixture is a discovered canonical cover over one benchmark shape,
// built once per process: discovery dominates setup and must stay outside
// the timed region.
type coverFixture struct {
	r   *relation.Relation
	can []dep.FD
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*coverFixture{}
)

func coverOf(b *testing.B, name string, rows, cols int) *coverFixture {
	b.Helper()
	key := fmt.Sprintf("%s-%dx%d", name, rows, cols)
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	bm, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(rows, cols)
	f := &coverFixture{r: r, can: cover.Canonical(r.NumCols(), discover(r))}
	fixtures[key] = f
	return f
}

// benchShapes are the ranking workloads: flight's cover runs to thousands
// of FDs (the regime where ranking costs as much as discovery), hepatitis
// is the null-heavy mid-size shape.
var benchShapes = []struct {
	name       string
	rows, cols int
}{
	{"flight", 500, 20},
	{"hepatitis", 600, 18},
}

// BenchmarkRankCover ranks a discovered canonical cover end to end — the
// fdrank hot path.
func BenchmarkRankCover(b *testing.B) {
	for _, s := range benchShapes {
		f := coverOf(b, s.name, s.rows, s.cols)
		b.Run(fmt.Sprintf("%s-%dx%d-%dfds", s.name, s.rows, s.cols, len(f.can)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(RankCtx(context.Background(), f.r, f.can, Config{}))
			}
		})
	}
}

// BenchmarkTotalsCover computes the Table IV dataset totals over the same
// covers: every occurrence marked per FD, counted once.
func BenchmarkTotalsCover(b *testing.B) {
	for _, s := range benchShapes {
		f := coverOf(b, s.name, s.rows, s.cols)
		b.Run(fmt.Sprintf("%s-%dx%d-%dfds", s.name, s.rows, s.cols, len(f.can)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(TotalsCtx(context.Background(), f.r, f.can, Config{}))
			}
		})
	}
}

// BenchmarkRankCoverCached ranks through a shared PLI cache pre-filled by
// one warm-up pass — the fdrank -pli-cache configuration, where ranking
// reuses the partitions discovery built.
func BenchmarkRankCoverCached(b *testing.B) {
	for _, s := range benchShapes {
		f := coverOf(b, s.name, s.rows, s.cols)
		b.Run(fmt.Sprintf("%s-%dx%d-%dfds", s.name, s.rows, s.cols, len(f.can)), func(b *testing.B) {
			cfg := Config{Cache: partition.NewCache(256<<20, nil)}
			if _, _, err := RankCtx(context.Background(), f.r, f.can, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RankCtx(context.Background(), f.r, f.can, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistogram buckets a large per-FD count slice at the Figure 10
// thresholds.
func BenchmarkHistogram(b *testing.B) {
	counts := make([]int, 20000)
	for i := range counts {
		counts[i] = (i * 7919) % 15013
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Histogram(counts)
	}
}
