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

// pliAlgorithms are the drivers that hold multi-attribute partitions
// and whose bootstrap builds every single-attribute partition through
// partition.Singles. DFD bootstraps only when a cache is attached (its
// prewarm), so its runs below add one.
var pliAlgorithms = []dhyfd.Algorithm{dhyfd.DHyFD, dhyfd.HyFD, dhyfd.TANE, dhyfd.DFD}

// twoWorkerOpts builds the option set for one two-worker run.
func twoWorkerOpts(a dhyfd.Algorithm) []dhyfd.Option {
	opts := []dhyfd.Option{dhyfd.WithAlgorithm(a), dhyfd.WithWorkers(2)}
	if a == dhyfd.DFD {
		opts = append(opts, dhyfd.WithPartitionCache(16<<20))
	}
	return opts
}

// TestEvictingCacheCoverMatchesResident runs every PLI algorithm with a
// cache far too small to hold its working set and asserts the bound only
// decides what is rebuilt: the cover matches the resident run's, neither
// run degrades, and the bound really evicted.
func TestEvictingCacheCoverMatchesResident(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := dataset.Random(rng, 300, 6, 4)
	ctx := context.Background()
	const bound = 4096

	for _, a := range pliAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			resident, err := dhyfd.Discover(ctx, r, twoWorkerOpts(a)...)
			if err != nil {
				t.Fatalf("resident run failed: %v", err)
			}
			opts := append(twoWorkerOpts(a), dhyfd.WithPartitionCache(bound))
			res, err := dhyfd.Discover(ctx, r, opts...)
			if err != nil {
				t.Fatalf("evicting run failed: %v", err)
			}
			if !dep.Equal(res.FDs, resident.FDs) {
				t.Errorf("evicting cache changed the cover: %d vs %d FDs",
					len(res.FDs), len(resident.FDs))
			}
			if resident.Stats.Degraded || res.Stats.Degraded {
				t.Errorf("degraded: resident=%v evicting=%v", resident.Stats.Degraded, res.Stats.Degraded)
			}
			if res.Stats.CacheEvictions == 0 {
				t.Errorf("the %d-byte bound evicted nothing", bound)
			}
		})
	}
}

// TestPagedCoverEquivalence asserts the column pager is purely a storage
// strategy: a relation ingested with paged columns yields a cover whose
// formatted bytes hash identically to the resident ingest's, for every
// algorithm, serial and on two workers (DFD with a PLI cache, so its
// prewarm fans out over the paged columns), and every run stays
// undegraded and reports all columns paged on the paged relation and
// none on the resident one.
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

	for _, a := range dhyfd.Algorithms() {
		t.Run(a.String(), func(t *testing.T) {
			want := coverSHA(resident, dhyfd.WithAlgorithm(a))
			if got := coverSHA(paged, dhyfd.WithAlgorithm(a)); got != want {
				t.Error("paged serial run changed the cover bytes")
			}
			if got := coverSHA(paged, twoWorkerOpts(a)...); got != want {
				t.Error("paged two-worker run changed the cover bytes")
			}
		})
	}
}
