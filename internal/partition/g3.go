// g3.go counts bounded violations of candidate FDs over stripped
// partitions — the g3-style approximate-validity measure of WithMaxError
// discovery. The g3 error of X → A is the smallest number of rows whose
// removal makes the FD hold exactly; over a stripped partition p = π_X it
// is Σ over clusters of (|cluster| − size of the largest A-agreeing group),
// since singleton clusters can never violate anything.
package partition

// G3Counter is reusable scratch for violation counting: a counts table
// indexed by value code plus the list of codes touched in the current
// cluster, so per-cluster reset is O(distinct values), not O(card).
type G3Counter struct {
	counts  []int32
	touched []int32
}

// NewG3Counter returns a counter able to handle value codes below card;
// Violations grows it on demand, so 0 is a fine initial size.
func NewG3Counter(card int) *G3Counter {
	return &G3Counter{counts: make([]int32, card)}
}

func (g *G3Counter) grow(card int) {
	if card > len(g.counts) {
		g.counts = append(g.counts, make([]int32, card-len(g.counts))...)
	}
}

// Violations returns the g3 violation count of p → col: the rows to
// delete so every cluster of p agrees on col. Counting stops as soon as
// the total exceeds limit — callers only need to compare against limit,
// so any return > limit means "too many".
func (g *G3Counter) Violations(p *Partition, col []int32, card int, limit int) int {
	total := 0
	for i := range p.Card() {
		total += g.ClusterViolations(p.Cluster(i), col, card)
		if total > limit {
			return total
		}
	}
	return total
}

// ClusterViolations returns the g3 violation count of one cluster
// against col: its rows outside the largest col-agreeing group. Clusters
// violate independently, so the validator, which refines one cluster at
// a time, sums these counts and compares the total against its bound as
// Violations does.
func (g *G3Counter) ClusterViolations(cluster, col []int32, card int) int {
	g.grow(card)
	var most int32
	for _, row := range cluster {
		code := col[row]
		g.counts[code]++
		if g.counts[code] == 1 {
			g.touched = append(g.touched, code)
		}
		most = max(most, g.counts[code])
	}
	for _, code := range g.touched {
		g.counts[code] = 0
	}
	g.touched = g.touched[:0]
	return len(cluster) - int(most)
}
