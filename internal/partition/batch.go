package partition

import (
	"context"

	"repro/internal/engine"
)

// RefineJob refines Part by the listed attributes in order: attribute a
// names the dictionary-encoded column cols[a] of the batch's relation,
// with cardinality cards[a].
type RefineJob struct {
	Part  *Partition
	Attrs []int
}

// RefineBatch refines every job on the pool and returns the refined
// partitions in job order; the DDM's partition refreshes and TANE's
// level joins run through it. cols and cards describe the full relation
// the jobs' attributes index. Each item borrows pooled Refiner scratch,
// so refinement reuses buckets without locking, and returns it only once
// its refinements completed, so a panicking item drops its half-filled
// scratch with it. Items restart cleanly under the pool's retry policy:
// each attempt re-reads jobs[i].Part and only publishes out[i] at the
// end. On cancellation the partial results are returned with ctx's
// error; unprocessed entries are nil.
func RefineBatch(ctx context.Context, pool *engine.Pool, cols [][]int32, cards []int, jobs []RefineJob) ([]*Partition, error) {
	out := make([]*Partition, len(jobs))
	err := pool.Run(ctx, len(jobs), func(_, i int) {
		rf := getRefiner()
		p := jobs[i].Part
		for _, a := range jobs[i].Attrs {
			if p.IsUnique() {
				break
			}
			p = rf.refine(p, cols[a], cards[a])
		}
		refiners.Put(rf)
		out[i] = p
	})
	return out, err
}
