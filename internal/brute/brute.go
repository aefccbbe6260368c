// Package brute enumerates minimal FDs by exhaustive search. It is the
// ground-truth oracle the discovery algorithms are tested against; it is
// exponential in the number of columns and intended for relations with at
// most a dozen or so attributes.
package brute

import (
	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/relation"
)

// MinimalFDs returns the left-reduced cover (all minimal FDs X → A with
// singleton RHSs) of r, sorted deterministically. Panics if r has more than
// 24 columns — use a discovery algorithm for anything that wide.
func MinimalFDs(r *relation.Relation) []dep.FD {
	n := r.NumCols()
	if n > 24 {
		panic("brute: too many columns")
	}
	var out []dep.FD
	for a := 0; a < n; a++ {
		var minimal []uint32 // masks of minimal valid LHSs found so far
		for mask := uint32(0); mask < 1<<uint(n); mask++ {
			if mask&(1<<uint(a)) != 0 {
				continue
			}
			// Ascending mask order enumerates subsets before supersets, so a
			// superset of a found minimal LHS can be skipped outright.
			dominated := false
			for _, m := range minimal {
				if m&mask == m {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			if lhs := maskSet(n, mask); HoldsSet(r, lhs, a) {
				minimal = append(minimal, mask)
				rhs := bitset.New(n)
				rhs.Add(a)
				out = append(out, dep.FD{LHS: lhs, RHS: rhs})
			}
		}
	}
	dep.Sort(out)
	return out
}

// maskSet returns the attribute set of the low n bits of mask.
func maskSet(n int, mask uint32) bitset.Set {
	s := bitset.New(n)
	for b := 0; b < n; b++ {
		if mask&(1<<uint(b)) != 0 {
			s.Add(b)
		}
	}
	return s
}

// Holds checks whether the FD (columns of mask) → a holds on r; it is
// HoldsSet for the attributes of the mask.
func Holds(r *relation.Relation, mask uint32, a int) bool {
	return HoldsSet(r, maskSet(r.NumCols(), mask), a)
}

// HoldsSet checks whether X → A holds on r by grouping rows on their
// X-projection of raw codes, the groupby(X)[A].nunique() <= 1 test: no
// partition is involved, so it checks the partition kernels
// independently, at any width.
func HoldsSet(r *relation.Relation, x bitset.Set, a int) bool {
	attrs := x.Attrs()
	seen := make(map[string]int32, r.NumRows())
	key := make([]byte, len(attrs)*4)
	for row := 0; row < r.NumRows(); row++ {
		for i, c := range attrs {
			v := r.Cols[c][row]
			key[i*4] = byte(v)
			key[i*4+1] = byte(v >> 8)
			key[i*4+2] = byte(v >> 16)
			key[i*4+3] = byte(v >> 24)
		}
		k := string(key)
		if prev, ok := seen[k]; ok {
			if prev != r.Cols[a][row] {
				return false
			}
		} else {
			seen[k] = r.Cols[a][row]
		}
	}
	return true
}
