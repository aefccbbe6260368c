// Package bitset implements attribute sets as variable-length bitsets.
//
// Functional dependency discovery manipulates sets of column indexes
// constantly: building lattices, traversing FD-trees, computing agree sets.
// The Set type packs those column indexes into words so that union,
// intersection, difference and subset tests are a handful of machine
// instructions per 64 columns.
//
// Attributes are zero-based column indexes. A Set never shrinks its word
// slice; all sets over the same schema should be created with the same
// width (see New) so that the fast word-parallel paths apply.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-width bitset over attribute indexes 0..n-1.
// The zero value is an empty set of width 0; use New for a usable set.
type Set []uint64

// WordsFor returns the number of 64-bit words needed for n attributes.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordBits - 1) / wordBits
}

// New returns an empty set able to hold attributes 0..n-1.
func New(n int) Set {
	return make(Set, WordsFor(n))
}

// FromAttrs returns a set of width n containing the given attributes.
func FromAttrs(n int, attrs ...int) Set {
	s := New(n)
	for _, a := range attrs {
		s.Add(a)
	}
	return s
}

// Full returns the set {0, …, n-1} of width n.
func Full(n int) Set {
	s := New(n)
	for i := 0; i < n/wordBits; i++ {
		s[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 {
		s[len(s)-1] = (uint64(1) << uint(r)) - 1
	}
	return s
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with the contents of o. The sets must share width.
func (s Set) CopyFrom(o Set) {
	copy(s, o)
}

// Add inserts attribute a.
func (s Set) Add(a int) {
	s[a/wordBits] |= 1 << uint(a%wordBits)
}

// Remove deletes attribute a.
func (s Set) Remove(a int) {
	s[a/wordBits] &^= 1 << uint(a%wordBits)
}

// Contains reports whether attribute a is in the set.
func (s Set) Contains(a int) bool {
	w := a / wordBits
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<uint(a%wordBits)) != 0
}

// IsEmpty reports whether the set has no attributes.
func (s Set) IsEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of attributes in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether s and o contain the same attributes.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return equalRagged(s, o)
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

func equalRagged(a, b Set) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every attribute of s is in o.
func (s Set) IsSubsetOf(o Set) bool {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i]&^o[i] != 0 {
			return false
		}
	}
	for _, w := range s[n:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share at least one attribute.
func (s Set) Intersects(o Set) bool {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// UnionWith adds every attribute of o to s in place.
func (s Set) UnionWith(o Set) {
	for i := range o {
		s[i] |= o[i]
	}
}

// IntersectWith removes from s every attribute not in o.
func (s Set) IntersectWith(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// DifferenceWith removes every attribute of o from s in place.
func (s Set) DifferenceWith(o Set) {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		s[i] &^= o[i]
	}
}

// UnionIntersection adds a ∩ b to s in place (s |= a & b), word-parallel.
// All three sets must share the schema width.
func (s Set) UnionIntersection(a, b Set) {
	for i := range s {
		s[i] |= a[i] & b[i]
	}
}

// IntersectsDifference reports whether s shares an attribute with a ∖ b,
// without materializing the difference. All three sets must share the
// schema width.
func (s Set) IntersectsDifference(a, b Set) bool {
	for i := range s {
		if s[i]&a[i]&^b[i] != 0 {
			return true
		}
	}
	return false
}

// Union returns a new set containing the attributes of s and o.
func (s Set) Union(o Set) Set {
	c := s.Clone()
	c.UnionWith(o)
	return c
}

// Intersect returns a new set containing the attributes common to s and o.
func (s Set) Intersect(o Set) Set {
	c := s.Clone()
	c.IntersectWith(o)
	return c
}

// Difference returns a new set with the attributes of s that are not in o.
func (s Set) Difference(o Set) Set {
	c := s.Clone()
	c.DifferenceWith(o)
	return c
}

// Clear removes all attributes.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Next returns the smallest attribute >= from, or -1 if none exists.
// Iterate a set with:
//
//	for a := s.Next(0); a >= 0; a = s.Next(a + 1) { ... }
func (s Set) Next(from int) int {
	if from < 0 {
		from = 0
	}
	w := from / wordBits
	if w >= len(s) {
		return -1
	}
	cur := s[w] >> uint(from%wordBits)
	if cur != 0 {
		return from + bits.TrailingZeros64(cur)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// Min returns the smallest attribute, or -1 for the empty set.
func (s Set) Min() int { return s.Next(0) }

// Max returns the largest attribute, or -1 for the empty set.
func (s Set) Max() int {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w*wordBits + 63 - bits.LeadingZeros64(s[w])
		}
	}
	return -1
}

// Attrs returns the attributes in ascending order.
func (s Set) Attrs() []int {
	return s.AppendAttrs(make([]int, 0, s.Count()))
}

// AppendAttrs appends the attributes in ascending order to dst and returns
// it — the allocation-free form of Attrs for callers with a scratch slice.
func (s Set) AppendAttrs(dst []int) []int {
	for a := s.Next(0); a >= 0; a = s.Next(a + 1) {
		dst = append(dst, a)
	}
	return dst
}

// Key returns the set contents as a compact string usable as a map key.
func (s Set) Key() string {
	return string(s.AppendKey(nil))
}

// AppendKey appends the set's map-key bytes (the Key encoding) to dst and
// returns it. Callers that probe a map repeatedly keep one buffer alive
// and look up with string(buf) — the compiler elides that conversion's
// allocation for map reads.
func (s Set) AppendKey(dst []byte) []byte {
	for _, w := range s {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// CompareSizeLex orders sets by descending cardinality, breaking ties by
// ascending lexicographic order of the attribute lists. It is the order
// DHyFD and FDEP2 use to sort non-FDs (larger LHSs first).
func CompareSizeLex(a, b Set) int {
	ca, cb := a.Count(), b.Count()
	if ca != cb {
		if ca > cb {
			return -1
		}
		return 1
	}
	return CompareLex(a, b)
}

// CompareLex orders sets lexicographically by ascending attribute lists.
func CompareLex(a, b Set) int {
	i, j := a.Next(0), b.Next(0)
	for i >= 0 && j >= 0 {
		if i != j {
			if i < j {
				return -1
			}
			return 1
		}
		i, j = a.Next(i+1), b.Next(j+1)
	}
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return -1
	default:
		return 1
	}
}

// MarshalJSON encodes the set as its ascending attribute list, so JSON
// consumers see [1,3,7] instead of raw machine words.
func (s Set) MarshalJSON() ([]byte, error) {
	attrs := s.Attrs()
	b := make([]byte, 0, 2+len(attrs)*4)
	b = append(b, '[')
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return append(b, ']'), nil
}

// String renders the set as "{1,3,7}" using attribute indexes.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for a := s.Next(0); a >= 0; a = s.Next(a + 1) {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
		first = false
	}
	b.WriteByte('}')
	return b.String()
}

// Names renders the set using the given column names, joined by commas.
func (s Set) Names(names []string) string {
	var b strings.Builder
	first := true
	for a := s.Next(0); a >= 0; a = s.Next(a + 1) {
		if !first {
			b.WriteString(", ")
		}
		if a < len(names) {
			b.WriteString(names[a])
		} else {
			b.WriteString(strconv.Itoa(a))
		}
		first = false
	}
	return b.String()
}
