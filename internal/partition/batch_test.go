package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
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

func TestRefineBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows = 400
	cards := []int{4, 6, 3, 5, 7, 2}
	cols := make([][]int32, len(cards))
	for a, card := range cards {
		cols[a] = randColumn(rng, rows, card)
	}
	var jobs []RefineJob
	var want []*Partition
	for k := 0; k < 20; k++ {
		base := rng.Intn(len(cols))
		attrs := rng.Perm(len(cols))[:1+rng.Intn(3)]
		p := Single(cols[base], cards[base])
		jobs = append(jobs, RefineJob{Part: p, Attrs: attrs})
		for _, a := range attrs {
			p = Refine(p, cols[a], cards[a])
		}
		want = append(want, p)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := RefineBatch(context.Background(), engine.NewPool(workers), cols, cards, jobs)
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
	jobs := make([]RefineJob, 500)
	cols := [][]int32{randColumn(rng, 100, 3)}
	for i := range jobs {
		jobs[i] = RefineJob{Part: p, Attrs: []int{0}}
	}
	if _, err := RefineBatch(ctx, engine.NewPool(2), cols, []int{3}, jobs); !errors.Is(err, context.Canceled) {
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
		{"ForAttrsCached", func(cols [][]int32, cards []int) (*Partition, error) {
			p, _, err := ForAttrsCached(ctx, NewCache(1<<20, nil), bitset.FromAttrs(2, 0, 1), cols, cards)
			return p, err
		}},
		{"RefineBatch", func(cols [][]int32, cards []int) (*Partition, error) {
			job := RefineJob{Part: Single(cols[0], cards[0]), Attrs: []int{1}}
			out, err := RefineBatch(ctx, engine.NewPool(3), cols, cards, []RefineJob{job, job, job})
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
		want := &Partition{NRows: a.NRows, backing: slices.Clone(a.backing), offsets: slices.Clone(a.offsets)}
		if _, err := e.refine(colsB, []int{3, 40}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: a later call rewrote an earlier result", e.name)
		}
	}
}

// TestRefineBatchPanicDropsScratch panics one RefineBatch call
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
	job := RefineJob{Part: p, Attrs: []int{0}}
	_, err := RefineBatch(ctx, pool, [][]int32{col[:rows/2]}, []int{5}, []RefineJob{job})
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("short column: err = %v, want *engine.PanicError", err)
	}
	got, err := RefineBatch(ctx, pool, [][]int32{col}, []int{5}, []RefineJob{job})
	if err != nil {
		t.Fatal(err)
	}
	want := NewRefiner(5).refine(p, col, 5)
	if !reflect.DeepEqual(got[0], want) {
		t.Error("the call after a panic refined on dirty scratch")
	}
}
