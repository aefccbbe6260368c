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

// IntersectBatch computes every job's intersection on the pool and
// returns the results in job order; TANE's level generation feeds whole
// prefix-block joins through it. Each worker owns one ProbeTable buffer
// and one Intersector for the whole batch: the probe indexes the Left
// side, so runs of jobs sharing Left (TANE's prefix blocks are generated
// that way) reuse the probe as built, and other jobs at worst refill the
// same NRows-sized buffer instead of allocating a fresh one. The pool's
// retry policy supervises the items; re-running one is safe, because the
// probe refill check is idempotent and out[i] is written only as the
// item's last step. On cancellation the partial results are returned
// with ctx's error; unprocessed entries are nil.
func IntersectBatch(ctx context.Context, pool *engine.Pool, jobs []IntersectJob) ([]*Partition, error) {
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

// RefineBatch refines every job on the pool and returns the refined
// partitions in job order; the DDM's partition refreshes run through it.
// Each item borrows pooled Refiner scratch, so refinement reuses buckets
// without locking, and returns it only once its refinements completed,
// so a panicking item drops its half-filled scratch with it. Items
// restart cleanly under the pool's retry policy: each attempt re-reads
// jobs[i].Part and only publishes out[i] at the end. On cancellation the
// partial results are returned with ctx's error; unprocessed entries are
// nil.
func RefineBatch(ctx context.Context, pool *engine.Pool, jobs []RefineJob) ([]*Partition, error) {
	out := make([]*Partition, len(jobs))
	err := pool.Run(ctx, len(jobs), func(_, i int) {
		rf := getRefiner()
		p := jobs[i].Part
		for k, col := range jobs[i].Cols {
			if len(p.Clusters) == 0 {
				break
			}
			p = rf.refine(p, col, jobs[i].Cards[k])
		}
		refiners.Put(rf)
		out[i] = p
	})
	return out, err
}
