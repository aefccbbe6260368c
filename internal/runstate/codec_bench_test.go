package runstate_test

import (
	"context"
	"os"
	"testing"
	"time"

	dhyfd "repro"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// BenchmarkSnapshotCodec times the snapshot codec on a mid-run snapshot
// of each durable algorithm over ncvoter 3000×19: encode builds the file
// image, load reads, verifies and decodes the file. Where the cut lands
// varies from run to run, so file_B reports the snapshot's size.
func BenchmarkSnapshotCodec(b *testing.B) {
	bench, err := dataset.ByName("ncvoter")
	if err != nil {
		b.Fatal(err)
	}
	r := bench.Generate(3000, 19)
	for _, a := range []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD, dhyfd.FastFDs} {
		dir := b.TempDir()
		cutMidRun(b, r, a, dir)
		s, err := runstate.Load(dir)
		if err != nil {
			b.Fatal(err)
		}
		file, err := os.Stat(runstate.Path(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(a.String()+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(file.Size()), "file_B")
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = runstate.EncodeFile(buf[:0], s)
			}
		})
		b.Run(a.String()+"/load", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(file.Size()), "file_B")
			for i := 0; i < b.N; i++ {
				if _, err := runstate.Load(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cutMidRun runs a over r with a checkpoint at every boundary in dir and
// cancels it once half of an uninterrupted run's time has passed and the
// first snapshot is on disk, so dir holds the last boundary before the
// cut. Waiting for the first snapshot keeps the cut inside the search for
// FastFDs, whose first boundary follows its O(r²) negative cover.
func cutMidRun(b *testing.B, r *relation.Relation, a dhyfd.Algorithm, dir string) {
	start := time.Now()
	if _, err := dhyfd.Discover(context.Background(), r, dhyfd.WithAlgorithm(a)); err != nil {
		b.Fatal(err)
	}
	half := time.Since(start) / 2
	ctx, cancel := context.WithCancel(context.Background())
	cut := make(chan struct{})
	go func() {
		defer close(cut)
		time.Sleep(half)
		for ctx.Err() == nil {
			if _, err := os.Stat(runstate.Path(dir)); err == nil {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	_, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a), dhyfd.WithCheckpoint(dir, time.Nanosecond))
	cancel()
	<-cut
	if err == nil {
		b.Fatalf("%v finished before the cut; no mid-run snapshot", a)
	}
}
