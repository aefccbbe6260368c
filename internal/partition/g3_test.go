package partition

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// g3Brute computes the g3 violation count directly from the definition:
// per LHS cluster, the rows outside the largest RHS-agreeing group.
func g3Brute(p *Partition, col []int32) int {
	total := 0
	for i := range p.Card() {
		cluster := p.Cluster(i)
		freq := map[int32]int{}
		max := 0
		for _, row := range cluster {
			freq[col[row]]++
			if freq[col[row]] > max {
				max = freq[col[row]]
			}
		}
		total += len(cluster) - max
	}
	return total
}

func TestG3ViolationsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows, cols, card := 40+rng.Intn(160), 4, 2+rng.Intn(5)
		data := make([][]int32, cols)
		cards := make([]int, cols)
		for c := range data {
			data[c] = make([]int32, rows)
			for r := range data[c] {
				data[c][r] = int32(rng.Intn(card))
			}
			cards[c] = card
		}
		lhs := bitset.FromAttrs(cols, 0)
		if trial%2 == 1 {
			lhs = bitset.FromAttrs(cols, 0, 1)
		}
		p := ForAttrs(lhs, data, cards)
		want := g3Brute(p, data[3])
		if got := NewG3Counter(card).Violations(p, data[3], card, rows); got != want {
			t.Fatalf("trial %d: Violations = %d, want %d", trial, got, want)
		}
		// The early-exit contract: any return past limit means "too many".
		if want > 0 {
			if got := NewG3Counter(card).Violations(p, data[3], card, want-1); got <= want-1 {
				t.Fatalf("trial %d: limit %d returned %d, want > limit", trial, want-1, got)
			}
		}
	}
}

func TestG3CounterReuseAcrossCards(t *testing.T) {
	// One counter serves columns of growing cardinality and must stay
	// clean between calls.
	cols := [][]int32{
		{0, 0, 1, 1, 0, 1},
		{0, 1, 2, 3, 4, 5},
	}
	cards := []int{2, 6}
	p := ForAttrs(bitset.FromAttrs(2, 0), cols, cards)
	g := NewG3Counter(0)
	for round := 0; round < 3; round++ {
		for c := 0; c < 2; c++ {
			want := g3Brute(p, cols[c])
			if got := g.Violations(p, cols[c], cards[c], len(cols[c])); got != want {
				t.Fatalf("round %d col %d: Violations = %d, want %d", round, c, got, want)
			}
		}
	}
}

func TestG3ZeroWhenFDHolds(t *testing.T) {
	// col1 is a function of col0, so g3 must be 0.
	col0 := []int32{0, 0, 1, 1, 2, 2}
	col1 := []int32{1, 1, 0, 0, 1, 1}
	p := ForAttrs(bitset.FromAttrs(2, 0), [][]int32{col0, col1}, []int{3, 2})
	if got := NewG3Counter(2).Violations(p, col1, 2, 6); got != 0 {
		t.Fatalf("Violations = %d, want 0", got)
	}
}
