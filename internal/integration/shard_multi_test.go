package integration

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	dhyfd "repro"
	"repro/internal/dataset"
	"repro/internal/dep"
)

// allAlgorithms spans every driver: the PLI-based four route the
// multi-attribute Refine/Intersect kernels and cluster sampling through
// the shard scheme, the row-based two route their negative-cover pair
// scan through it.
var allAlgorithms = []dhyfd.Algorithm{
	dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.FDEP2, dhyfd.FastFDs, dhyfd.DFD,
}

// TestMultiAttrShardCoverEquivalence asserts the sharded multi-attribute
// kernels are purely an execution strategy across every algorithm: the
// discovered cover is identical at every shard size — degenerate one-row
// shards, sizes that leave ragged tails, and shards larger than the
// relation — and identical to the serial (Workers=1) run.
func TestMultiAttrShardCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := dataset.Random(rng, 240, 6, 4)
	ctx := context.Background()

	for _, a := range allAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			serial, err := dhyfd.Discover(ctx, r, dhyfd.WithAlgorithm(a))
			if err != nil {
				t.Fatalf("serial run failed: %v", err)
			}
			for _, shardSize := range []int{1, 7, 64, r.NumRows() + 13} {
				for _, workers := range []int{2, 4} {
					opts := []dhyfd.Option{
						dhyfd.WithAlgorithm(a),
						dhyfd.WithWorkers(workers),
						dhyfd.WithShardSize(shardSize),
					}
					if a == dhyfd.DFD {
						opts = append(opts, dhyfd.WithPartitionCache(16<<20))
					}
					res, err := dhyfd.Discover(ctx, r, opts...)
					if err != nil {
						t.Fatalf("shard %d workers %d: %v", shardSize, workers, err)
					}
					if !dep.Equal(res.FDs, serial.FDs) {
						t.Errorf("shard %d workers %d changed the cover: %d vs %d FDs",
							shardSize, workers, len(res.FDs), len(serial.FDs))
					}
				}
			}
		})
	}
}

// TestPagedCoverEquivalence asserts the column pager is purely a storage
// strategy: a relation ingested with paged columns yields a cover whose
// formatted bytes hash identically to the resident ingest's, for every
// algorithm, serial and sharded, and every run stays undegraded and
// reports all columns paged on the paged relation and none on the
// resident one.
func TestPagedCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sb strings.Builder
	sb.WriteString("a,b,c,d,e\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d\n",
			rng.Intn(5), rng.Intn(7), rng.Intn(3), rng.Intn(11), i%2)
	}
	data := sb.String()
	ctx := context.Background()

	resident, err := dhyfd.ReadCSV(strings.NewReader(data), dhyfd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := dhyfd.ReadCSV(strings.NewReader(data), dhyfd.Options{
		PageColumns: true, PageDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if !paged.Paged() {
		t.Fatal("relation not paged")
	}

	// coverSHA also checks that the run did not degrade and its pager
	// count: every column on the paged relation, none on the resident one.
	coverSHA := func(r *dhyfd.Relation, opts ...dhyfd.Option) [32]byte {
		t.Helper()
		res, err := dhyfd.Discover(ctx, r, opts...)
		if err != nil {
			t.Fatalf("discover on %v: %v", opts, err)
		}
		if res.Stats.Degraded {
			t.Errorf("paged=%v: run degraded: %s", r.Paged(), res.Stats.DegradedReason)
		}
		wantPaged := int64(0)
		if r.Paged() {
			wantPaged = int64(r.NumCols())
		}
		if res.Stats.ColumnsPaged != wantPaged {
			t.Errorf("paged=%v: ColumnsPaged = %d, want %d", r.Paged(), res.Stats.ColumnsPaged, wantPaged)
		}
		return sha256.Sum256([]byte(dhyfd.FormatFDs(res.FDs, r.Names)))
	}

	for _, a := range allAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			want := coverSHA(resident, dhyfd.WithAlgorithm(a))
			if got := coverSHA(paged, dhyfd.WithAlgorithm(a)); got != want {
				t.Error("paged serial run changed the cover bytes")
			}
			sharded := []dhyfd.Option{
				dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2), dhyfd.WithShardSize(64),
			}
			if a == dhyfd.DFD {
				sharded = append(sharded, dhyfd.WithPartitionCache(16<<20))
			}
			if got := coverSHA(paged, sharded...); got != want {
				t.Error("paged sharded run changed the cover bytes")
			}
		})
	}

	// The pager's traffic must land in the run report.
	res, err := dhyfd.Discover(ctx, paged, dhyfd.WithAlgorithm(dhyfd.DHyFD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ColumnsPaged != int64(paged.NumCols()) {
		t.Errorf("ColumnsPaged = %d, want %d", res.Stats.ColumnsPaged, paged.NumCols())
	}
}
