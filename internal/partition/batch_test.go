package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
)

func randColumn(rng *rand.Rand, rows, card int) []int32 {
	col := make([]int32, rows)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	return col
}

func TestIntersectBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows = 400
	var jobs []IntersectJob
	var want []*Partition
	for k := 0; k < 20; k++ {
		a := Single(randColumn(rng, rows, 5), 5)
		b := Single(randColumn(rng, rows, 7), 7)
		jobs = append(jobs, IntersectJob{Left: a, Right: b})
		want = append(want, Intersect(a, NewProbeTable(b)))
	}
	for _, workers := range []int{1, 4} {
		got, err := IntersectBatch(context.Background(), workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: job %d differs from serial Intersect", workers, i)
			}
		}
	}
}

func TestRefineBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows = 400
	var jobs []RefineJob
	var want []*Partition
	for k := 0; k < 20; k++ {
		base := randColumn(rng, rows, 4)
		c1 := randColumn(rng, rows, 6)
		c2 := randColumn(rng, rows, 3)
		p := Single(base, 4)
		jobs = append(jobs, RefineJob{Part: p, Cols: [][]int32{c1, c2}, Cards: []int{6, 3}})
		want = append(want, Refine(Refine(p, c1, 6), c2, 3))
	}
	for _, workers := range []int{1, 4} {
		got, err := RefineBatch(context.Background(), workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: job %d differs from serial Refine chain", workers, i)
			}
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	p := Single(randColumn(rng, 100, 3), 3)
	jobs := make([]IntersectJob, 500)
	for i := range jobs {
		jobs[i] = IntersectJob{Left: p, Right: p}
	}
	if _, err := IntersectBatch(ctx, 2, jobs); !errors.Is(err, context.Canceled) {
		t.Errorf("IntersectBatch err = %v, want context.Canceled", err)
	}
	rjobs := make([]RefineJob, 500)
	col := randColumn(rng, 100, 3)
	for i := range rjobs {
		rjobs[i] = RefineJob{Part: p, Cols: [][]int32{col}, Cards: []int{3}}
	}
	if _, err := RefineBatch(ctx, 2, rjobs); !errors.Is(err, context.Canceled) {
		t.Errorf("RefineBatch err = %v, want context.Canceled", err)
	}
}

// TestPooledScratchNeverReachesOutput refines a partition through each
// one-shot entry point, then refines an unrelated relation with a
// higher-card column through the same entry point, so the second call
// grows and reuses the pooled buckets the first one filled. The first
// result must be untouched: outputs copy rows out of the scratch.
func TestPooledScratchNeverReachesOutput(t *testing.T) {
	ctx := context.Background()
	entries := []struct {
		name   string
		refine func(cols [][]int32, cards []int) (*Partition, error)
	}{
		{"Refine", func(cols [][]int32, cards []int) (*Partition, error) {
			return Refine(Single(cols[0], cards[0]), cols[1], cards[1]), nil
		}},
		{"ForAttrs", func(cols [][]int32, cards []int) (*Partition, error) {
			return ForAttrs(bitset.FromAttrs(2, 0, 1), cols, cards), nil
		}},
		{"ForAttrsCachedStats", func(cols [][]int32, cards []int) (*Partition, error) {
			p, _ := ForAttrsCachedStats(NewCache(1<<20, nil), bitset.FromAttrs(2, 0, 1), cols, cards)
			return p, nil
		}},
		{"RefineSharded/1", func(cols [][]int32, cards []int) (*Partition, error) {
			return RefineSharded(ctx, engine.NewPool(1), Single(cols[0], cards[0]), cols[1], cards[1], 16)
		}},
		{"RefineSharded/3", func(cols [][]int32, cards []int) (*Partition, error) {
			return RefineSharded(ctx, engine.NewPool(3), Single(cols[0], cards[0]), cols[1], cards[1], 16)
		}},
		{"RefineBatchPool", func(cols [][]int32, cards []int) (*Partition, error) {
			job := RefineJob{Part: Single(cols[0], cards[0]), Cols: cols[1:], Cards: cards[1:]}
			out, err := RefineBatchPool(ctx, engine.NewPool(3), []RefineJob{job, job, job})
			if err != nil {
				return nil, err
			}
			return out[0], nil
		}},
	}
	rng := rand.New(rand.NewSource(5))
	const rows = 300
	colsA := [][]int32{randColumn(rng, rows, 4), randColumn(rng, rows, 6)}
	colsB := [][]int32{randColumn(rng, rows, 3), randColumn(rng, rows, 40)}
	for _, e := range entries {
		a, err := e.refine(colsA, []int{4, 6})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want := a.Clone()
		if _, err := e.refine(colsB, []int{3, 40}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: a later call rewrote an earlier result", e.name)
		}
	}
}

// TestRefineBatchPanicDropsScratch panics one RefineBatchPool call
// inside the kernel, with a column shorter than the partition's row ids,
// so the worker's Refiner is left with half-filled buckets. The next,
// clean call must match a fresh Refiner: the dirty scratch never went
// back to the pool.
func TestRefineBatchPanicDropsScratch(t *testing.T) {
	ctx := context.Background()
	pool := engine.NewPool(1)
	rng := rand.New(rand.NewSource(9))
	const rows = 400
	p := Single(randColumn(rng, rows, 3), 3)
	col := randColumn(rng, rows, 5)
	bad := RefineJob{Part: p, Cols: [][]int32{col[:rows/2]}, Cards: []int{5}}
	_, err := RefineBatchPool(ctx, pool, []RefineJob{bad})
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("short column: err = %v, want *engine.PanicError", err)
	}
	got, err := RefineBatchPool(ctx, pool, []RefineJob{{Part: p, Cols: [][]int32{col}, Cards: []int{5}}})
	if err != nil {
		t.Fatal(err)
	}
	want := NewRefiner(5).Refine(p, col, 5)
	if !reflect.DeepEqual(got[0].Clusters, want.Clusters) {
		t.Error("the call after a panic refined on dirty scratch")
	}
}
