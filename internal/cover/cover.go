// Package cover implements the FD cover algebra of Section V-D: attribute
// closures, implication, left-reduction, redundancy elimination and
// canonical covers (Maier).
//
// Discovery algorithms emit left-reduced covers with singleton RHSs. Those
// covers contain many redundant FDs; a canonical cover — left-reduced,
// non-redundant, unique LHSs — is on average half the size on the paper's
// benchmarks. Closure computation is the hot path when shrinking covers of
// hundreds of thousands of FDs. Engine implements the linear-time
// Beeri–Bernstein closure with per-query version stamps instead of
// reallocation, for one-off queries and the IsLeftReduced, IsNonRedundant
// and Equivalent checks. LeftReduce, RemoveRedundant and Canonical answer
// theirs from a flat FD-tree (trie.go) whose walks visit only FDs with
// LHSs inside the closure. A discovered cover is left-reduced already, so
// left-reduction asks about the sets X∖{a} of its LHSs X and is told "no"
// every time; it closes those sets ahead, 64 at a time, over windows of
// consecutive FDs. Redundancy elimination drops and restores RHS bits of
// the same tree in place.
package cover

import (
	"repro/internal/bitset"
	"repro/internal/dep"
)

// Engine answers closure and implication queries for a fixed FD set.
type Engine struct {
	numAttrs int
	fds      []dep.FD
	// byAttr[a] lists the indexes of FDs whose LHS contains a.
	byAttr [][]int32
	// emptyIdx lists the indexes of FDs with empty LHSs.
	emptyIdx []int32
	dead     []bool

	// Per-query scratch, reset by version stamping.
	version  int64
	missing  []int   // missing[i]: #LHS attrs of FD i not yet in closure
	fdStamp  []int64 // version the missing counter belongs to
	queue    []int32 // FIFO of attributes to propagate
	lhsSizes []int
}

// NewEngine indexes the given FDs for repeated closure queries. The FDs may
// have set-valued RHSs.
func NewEngine(numAttrs int, fds []dep.FD) *Engine {
	e := &Engine{
		numAttrs: numAttrs,
		fds:      fds,
		byAttr:   make([][]int32, numAttrs),
		dead:     make([]bool, len(fds)),
		missing:  make([]int, len(fds)),
		fdStamp:  make([]int64, len(fds)),
		lhsSizes: make([]int, len(fds)),
	}
	for i, f := range fds {
		size := f.LHS.Count()
		e.lhsSizes[i] = size
		if size == 0 {
			e.emptyIdx = append(e.emptyIdx, int32(i))
			continue
		}
		for a := f.LHS.Next(0); a >= 0; a = f.LHS.Next(a + 1) {
			e.byAttr[a] = append(e.byAttr[a], int32(i))
		}
	}
	return e
}

// Kill masks the FD at index i out of all subsequent queries.
func (e *Engine) Kill(i int) { e.dead[i] = true }

// Revive unmasks the FD at index i.
func (e *Engine) Revive(i int) { e.dead[i] = false }

// Closure returns the attribute closure of x under the engine's live FDs,
// optionally ignoring the FD at index skip (pass -1 to use all live FDs).
func (e *Engine) Closure(x bitset.Set, skip int) bitset.Set {
	closure := x.Clone()
	e.version++
	e.queue = e.queue[:0]
	for _, fi := range e.emptyIdx {
		i := int(fi)
		if i == skip || e.dead[i] {
			continue
		}
		closure.UnionWith(e.fds[i].RHS)
	}
	// Enqueue every starting attribute exactly once; afterwards addRHS
	// enqueues an attribute exactly when it first enters the closure.
	for a := closure.Next(0); a >= 0; a = closure.Next(a + 1) {
		e.queue = append(e.queue, int32(a))
	}
	for len(e.queue) > 0 {
		a := int(e.queue[0])
		e.queue = e.queue[1:]
		for _, fi := range e.byAttr[a] {
			i := int(fi)
			if i == skip || e.dead[i] {
				continue
			}
			if e.fdStamp[i] != e.version {
				e.fdStamp[i] = e.version
				e.missing[i] = e.lhsSizes[i]
			}
			e.missing[i]--
			if e.missing[i] == 0 {
				e.addRHS(i, closure)
			}
		}
	}
	return closure
}

// addRHS adds the RHS attributes of FD i to the closure, enqueueing fresh
// attributes for propagation.
func (e *Engine) addRHS(i int, closure bitset.Set) {
	for b := e.fds[i].RHS.Next(0); b >= 0; b = e.fds[i].RHS.Next(b + 1) {
		if !closure.Contains(b) {
			closure.Add(b)
			e.queue = append(e.queue, int32(b))
		}
	}
}

// Implies reports whether the engine's live FDs imply x → y, optionally
// ignoring the FD at index skip. Closure propagation stops as soon as
// every attribute of y is reached, which makes the singleton-RHS queries
// of left-reduction and redundancy elimination far cheaper than full
// closures on large covers.
func (e *Engine) Implies(x, y bitset.Set, skip int) bool {
	if y.IsSubsetOf(x) {
		return true
	}
	missingY := y.Difference(x)
	closure := x.Clone()
	e.version++
	e.queue = e.queue[:0]
	for _, fi := range e.emptyIdx {
		i := int(fi)
		if i == skip || e.dead[i] {
			continue
		}
		closure.UnionWith(e.fds[i].RHS)
	}
	missingY.DifferenceWith(closure)
	if missingY.IsEmpty() {
		return true
	}
	for a := closure.Next(0); a >= 0; a = closure.Next(a + 1) {
		e.queue = append(e.queue, int32(a))
	}
	for len(e.queue) > 0 {
		a := int(e.queue[0])
		e.queue = e.queue[1:]
		for _, fi := range e.byAttr[a] {
			i := int(fi)
			if i == skip || e.dead[i] {
				continue
			}
			if e.fdStamp[i] != e.version {
				e.fdStamp[i] = e.version
				e.missing[i] = e.lhsSizes[i]
			}
			e.missing[i]--
			if e.missing[i] == 0 {
				e.addRHS(i, closure)
				missingY.DifferenceWith(e.fds[i].RHS)
				if missingY.IsEmpty() {
					return true
				}
			}
		}
	}
	return false
}

// Closure computes the attribute closure of x under fds. One-shot helper;
// use an Engine for repeated queries.
func Closure(numAttrs int, fds []dep.FD, x bitset.Set) bitset.Set {
	return NewEngine(numAttrs, fds).Closure(x, -1)
}

// Implies reports whether fds imply x → y.
func Implies(numAttrs int, fds []dep.FD, x, y bitset.Set) bool {
	return NewEngine(numAttrs, fds).Implies(x, y, -1)
}

// Equivalent reports whether two FD sets imply each other.
func Equivalent(numAttrs int, a, b []dep.FD) bool {
	ea, eb := NewEngine(numAttrs, a), NewEngine(numAttrs, b)
	for _, f := range a {
		if !eb.Implies(f.LHS, f.RHS, -1) {
			return false
		}
	}
	for _, f := range b {
		if !ea.Implies(f.LHS, f.RHS, -1) {
			return false
		}
	}
	return true
}

// LeftReduce minimizes every LHS: attributes are dropped while the full set
// still implies the reduced FD. The input is first split into singleton
// RHSs; the result keeps singleton RHSs and drops duplicates.
func LeftReduce(numAttrs int, fds []dep.FD) []dep.FD {
	out, _, _ := leftReduce(numAttrs, fds, windowSets)
	return out
}

// leftReduce is LeftReduce with windows of at most limit sets. It tries
// each FD's LHS attributes in ascending order, and a discovered cover is
// usually left-reduced already, so its queries are exactly the X∖{a} of
// its LHSs X, which the window closes ahead, 64 at a time. It also
// returns its index of the input, which indexes the result as well
// unless reduced reports that an LHS shrank.
func leftReduce(numAttrs int, fds []dep.FD, limit int) (out []dep.FD, ix *index, reduced bool) {
	split := dep.SplitRHS(fds)
	ix = newIndex(numAttrs, split)
	win := newWindow(ix, limit)
	seen := make(map[string]bool, len(split))
	var key []byte
	out = make([]dep.FD, 0, len(split))
	for lo := 0; lo < len(split); {
		hi := win.fill(split, lo)
		win.closeSets()
		for _, f := range split[lo:hi] {
			target := f.RHS.Min()
			lhs := f.LHS.Clone()
			for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
				lhs.Remove(a)
				if win.reaches(lhs, target) {
					reduced = true
				} else {
					lhs.Add(a)
				}
			}
			if key = appendKey(key[:0], lhs, f.RHS); !seen[string(key)] {
				seen[string(key)] = true
				out = append(out, dep.FD{LHS: lhs, RHS: f.RHS})
			}
		}
		lo = hi
	}
	return out, ix, reduced
}

// RemoveRedundant performs sequential redundancy elimination: each FD in
// slice order is dropped if the remaining live FDs still imply it. The
// input is normalized to singleton RHSs with duplicates removed, and the
// result keeps that form; it is non-redundant and equivalent to the input.
func RemoveRedundant(numAttrs int, fds []dep.FD) []dep.FD {
	split := dep.SplitRHS(fds)
	seen := make(map[string]bool, len(split))
	var key []byte
	uniq := split[:0:0]
	for _, f := range split {
		if key = appendKey(key[:0], f.LHS, f.RHS); !seen[string(key)] {
			seen[string(key)] = true
			uniq = append(uniq, f)
		}
	}
	return removeRedundant(newIndex(numAttrs, uniq), uniq)
}

// appendKey appends dep.FD{LHS: lhs, RHS: rhs}.Key()'s bytes to dst, so
// a dedupe probes its map with string(dst) and allocates a key only for
// a new FD.
func appendKey(dst []byte, lhs, rhs bitset.Set) []byte {
	return rhs.AppendKey(append(lhs.AppendKey(dst), '|'))
}

// removeRedundant is RemoveRedundant on fds that are singleton-RHS and
// unique already, with ix an index of exactly them. It leaves ix holding
// the FDs it keeps.
func removeRedundant(ix *index, fds []dep.FD) []dep.FD {
	out := make([]dep.FD, 0, len(fds))
	for _, f := range fds {
		target := f.RHS.Min()
		rhs := ix.rhs(f.LHS)
		w, bit := target>>6, uint64(1)<<(target&63)
		rhs[w] &^= bit // tentatively drop
		if ix.reaches(f.LHS, target) {
			continue // implied by the rest: stays dropped
		}
		rhs[w] |= bit
		out = append(out, f)
	}
	return out
}

// Canonical computes a canonical cover — left-reduced, non-redundant,
// unique LHSs — from any FD set (Maier's construction, the transformation
// Table III measures). The left-reduced cover is singleton-RHS and unique
// already, and unless an LHS shrank it is the input's FD set, which
// LeftReduce's index still holds.
func Canonical(numAttrs int, fds []dep.FD) []dep.FD {
	reduced, ix, shrank := leftReduce(numAttrs, fds, windowSets)
	if shrank {
		ix = newIndex(numAttrs, reduced)
	}
	return dep.MergeByLHS(removeRedundant(ix, reduced))
}

// IsLeftReduced reports whether no FD's LHS can lose an attribute.
func IsLeftReduced(numAttrs int, fds []dep.FD) bool {
	split := dep.SplitRHS(fds)
	e := NewEngine(numAttrs, split)
	for _, f := range split {
		lhs := f.LHS.Clone()
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			lhs.Remove(a)
			if e.Implies(lhs, f.RHS, -1) {
				return false
			}
			lhs.Add(a)
		}
	}
	return true
}

// IsNonRedundant reports whether no FD is implied by the remaining ones.
func IsNonRedundant(numAttrs int, fds []dep.FD) bool {
	e := NewEngine(numAttrs, fds)
	for i, f := range fds {
		if e.Implies(f.LHS, f.RHS, i) {
			return false
		}
	}
	return true
}

// UniqueLHS reports whether no two FDs share a LHS.
func UniqueLHS(fds []dep.FD) bool {
	seen := make(map[string]bool, len(fds))
	for _, f := range fds {
		k := f.LHS.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}
