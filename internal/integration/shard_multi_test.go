package integration

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	dhyfd "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/tane"
)

// allAlgorithms spans every driver: the PLI-based four cut partitions
// into cluster ranges (refinement inside a walk, cluster sampling), the
// row-based two fan their negative-cover pair scan out over blocks of
// outer rows.
var allAlgorithms = []dhyfd.Algorithm{
	dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.FDEP2, dhyfd.FastFDs, dhyfd.DFD,
}

// pairScanWidths are the pool widths the row-based algorithms run at:
// their pair scan takes no range size, so each width is its own cut.
var pairScanWidths = []int{1, 2, 3, 4, 7}

// runDriver runs algorithm a through its internal driver, where the
// cluster-range size runstate.Options.ShardSize — a test seam no public
// option or flag sets — is reachable. DFD gets a fresh 16 MiB PLI cache,
// as Discover callers give it, so its prewarm bootstraps every column.
func runDriver(ctx context.Context, a dhyfd.Algorithm, r *relation.Relation, o runstate.Options) ([]dep.FD, *engine.RunStats, error) {
	switch a {
	case dhyfd.DHyFD:
		return core.Run(ctx, r, core.Config{Options: o})
	case dhyfd.HyFD:
		return hyfd.Run(ctx, r, o)
	case dhyfd.TANE:
		return tane.Run(ctx, r, o)
	case dhyfd.FDEP2:
		return fdep.Run(ctx, r, fdep.Sorted, o)
	case dhyfd.FastFDs:
		return fastfds.Run(ctx, r, o)
	case dhyfd.DFD:
		o.Cache = partition.NewCache(16<<20, nil)
		return dfd.Run(ctx, r, o)
	default:
		return nil, nil, fmt.Errorf("no driver for %v", a)
	}
}

// TestMultiAttrShardCoverEquivalence asserts that cutting work into
// parallel items is purely an execution strategy across every algorithm:
// the discovered cover is identical to the serial (Workers=1) run at
// every cluster-range size — degenerate one-row ranges, sizes that leave
// ragged tails, and ranges larger than the relation — on two and four
// workers, and for the row-based two, whose pair-scan blocks follow the
// width alone, at every width in pairScanWidths.
func TestMultiAttrShardCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := dataset.Random(rng, 240, 6, 4)
	ctx := context.Background()

	for _, a := range allAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			serial := coverOf(runDriver(ctx, a, r, runstate.Options{}))
			var cells []runstate.Options
			if a == dhyfd.FDEP2 || a == dhyfd.FastFDs {
				for _, workers := range pairScanWidths {
					cells = append(cells, runstate.Options{Workers: workers})
				}
			} else {
				for _, shardSize := range []int{1, 7, 64, r.NumRows() + 13} {
					for _, workers := range []int{2, 4} {
						cells = append(cells, runstate.Options{Workers: workers, ShardSize: shardSize})
					}
				}
			}
			for _, o := range cells {
				fds, _, err := runDriver(ctx, a, r, o)
				if err != nil {
					t.Fatalf("shard %d workers %d: %v", o.ShardSize, o.Workers, err)
				}
				if !dep.Equal(fds, serial) {
					t.Errorf("shard %d workers %d changed the cover: %d vs %d FDs",
						o.ShardSize, o.Workers, len(fds), len(serial))
				}
			}
		})
	}
}

// TestPagedCoverEquivalence asserts the column pager is purely a storage
// strategy: a relation ingested with paged columns yields a cover whose
// formatted bytes hash identically to the resident ingest's, for every
// algorithm, serial and on two workers with 64-row cluster ranges, and
// every run stays undegraded; the Discover runs report all columns paged
// on the paged relation and none on the resident one.
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
			fds, rs, err := runDriver(ctx, a, paged, runstate.Options{Workers: 2, ShardSize: 64})
			if err != nil {
				t.Fatalf("paged sharded run: %v", err)
			}
			if rs.Degraded {
				t.Errorf("paged sharded run degraded: %s", rs.DegradedReason)
			}
			if sha256.Sum256([]byte(dhyfd.FormatFDs(fds, paged.Names))) != want {
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
