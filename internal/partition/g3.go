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
	return g.ViolationsClusters(p.Clusters, col, card, limit)
}

// ViolationsClusters is Violations over an explicit cluster list — the
// validator counts one cluster at a time with it. Clusters violate
// independently, so summing per-list counts (each early-exited past
// limit) decides "total > limit" exactly as the whole-partition scan
// does.
func (g *G3Counter) ViolationsClusters(clusters [][]int32, col []int32, card int, limit int) int {
	g.grow(card)
	total := 0
	for _, cluster := range clusters {
		var max int32
		for _, row := range cluster {
			code := col[row]
			g.counts[code]++
			if g.counts[code] == 1 {
				g.touched = append(g.touched, code)
			}
			if g.counts[code] > max {
				max = g.counts[code]
			}
		}
		for _, code := range g.touched {
			g.counts[code] = 0
		}
		g.touched = g.touched[:0]
		total += len(cluster) - int(max)
		if total > limit {
			return total
		}
	}
	return total
}
