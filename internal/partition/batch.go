package partition

import (
	"context"

	"repro/internal/engine"
)

// IntersectJob is one PLI product π_Left ∩ π_Right. The probe table is
// built inside the worker so that its construction parallelizes with the
// intersections.
type IntersectJob struct {
	Left, Right *Partition
}

// IntersectBatch computes every job's intersection on up to workers
// goroutines and returns the results in job order. It is the batched
// form of Intersect that TANE's level generation feeds whole prefix-block
// joins through. Each worker owns one ProbeTable buffer and one
// Intersector for the whole batch: the probe indexes the Left side, so
// runs of jobs sharing Left (TANE's prefix blocks are generated that way)
// reuse the probe as built, and other jobs at worst refill the same
// NRows-sized buffer instead of allocating a fresh one. On cancellation
// the partial results are returned with ctx's error; unprocessed entries
// are nil.
func IntersectBatch(ctx context.Context, workers int, jobs []IntersectJob) ([]*Partition, error) {
	return IntersectBatchPool(ctx, engine.NewPool(workers), jobs)
}

// IntersectBatchPool is IntersectBatch running on a caller-owned pool, so
// a driver's retry policy (and its attempt counters) supervise the batch.
// Re-running an item is safe: the probe refill check is idempotent and
// out[i] is written only as the item's last step.
func IntersectBatchPool(ctx context.Context, pool *engine.Pool, jobs []IntersectJob) ([]*Partition, error) {
	probes := make([]ProbeTable, pool.Workers())
	probedLeft := make([]*Partition, pool.Workers())
	ixs := make([]*Intersector, pool.Workers())
	for w := range ixs {
		ixs[w] = NewIntersector()
	}
	out := make([]*Partition, len(jobs))
	err := pool.Run(ctx, len(jobs), func(w, i int) {
		j := jobs[i]
		if probedLeft[w] != j.Left {
			probes[w] = probes[w].Fill(j.Left)
			probedLeft[w] = j.Left
		}
		// Intersection is symmetric: probing Left and iterating Right
		// yields the same clusters as the converse.
		out[i] = ixs[w].Intersect(j.Right, probes[w])
	})
	return out, err
}

// RefineJob refines Part by the listed columns in order. Cols[k] must be
// a full dictionary-encoded column with cardinality Cards[k].
type RefineJob struct {
	Part  *Partition
	Cols  [][]int32
	Cards []int
}

// RefineBatch refines every job on up to workers goroutines and returns
// the refined partitions in job order. Each item borrows pooled Refiner
// scratch, so refinement reuses buckets without locking. The DDM's
// partition refreshes run through it. On cancellation the partial
// results are returned with ctx's error; unprocessed entries are nil.
func RefineBatch(ctx context.Context, workers int, jobs []RefineJob) ([]*Partition, error) {
	return RefineBatchPool(ctx, engine.NewPool(workers), jobs)
}

// RefineBatchPool is RefineBatch running on a caller-owned pool, so a
// driver's retry policy supervises the refreshes. Items restart cleanly:
// each attempt re-reads jobs[i].Part and only publishes out[i] at the end.
// An item returns its Refiner only once its refinements completed, so a
// panicking item drops its half-filled scratch with it.
func RefineBatchPool(ctx context.Context, pool *engine.Pool, jobs []RefineJob) ([]*Partition, error) {
	out := make([]*Partition, len(jobs))
	err := pool.Run(ctx, len(jobs), func(_, i int) {
		rf := getRefiner()
		p := jobs[i].Part
		for k, col := range jobs[i].Cols {
			if len(p.Clusters) == 0 {
				break
			}
			p = rf.Refine(p, col, jobs[i].Cards[k])
		}
		refiners.Put(rf)
		out[i] = p
	})
	return out, err
}
