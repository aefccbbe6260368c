// Package dep defines the functional dependency value type shared by the
// discovery algorithms, cover computations and rankings.
package dep

import (
	"sort"
	"strings"

	"repro/internal/bitset"
)

// FD is a functional dependency LHS → RHS over a fixed schema width.
// Algorithms in this repository emit FDs with minimal LHSs; the RHS may be
// a single attribute (left-reduced covers) or a set (canonical covers).
type FD struct {
	LHS bitset.Set
	RHS bitset.Set
}

// Clone returns a deep copy.
func (f FD) Clone() FD {
	return FD{LHS: f.LHS.Clone(), RHS: f.RHS.Clone()}
}

// Trivial reports whether every RHS attribute already occurs in the LHS.
func (f FD) Trivial() bool {
	return f.RHS.IsSubsetOf(f.LHS)
}

// String renders the FD as "{0,2} -> {5}".
func (f FD) String() string {
	return f.LHS.String() + " -> " + f.RHS.String()
}

// Format renders the FD with column names, e.g. "last_name, zip -> city".
func (f FD) Format(names []string) string {
	lhs := f.LHS.Names(names)
	if lhs == "" {
		lhs = "∅"
	}
	return lhs + " -> " + f.RHS.Names(names)
}

// Key returns a map key identifying the FD contents.
func (f FD) Key() string {
	return f.LHS.Key() + "|" + f.RHS.Key()
}

// Sort orders FDs for deterministic output: by ascending LHS size, then
// lexicographic LHS, then lexicographic RHS.
func Sort(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		a, b := fds[i], fds[j]
		ca, cb := a.LHS.Count(), b.LHS.Count()
		if ca != cb {
			return ca < cb
		}
		if c := bitset.CompareLex(a.LHS, b.LHS); c != 0 {
			return c < 0
		}
		return bitset.CompareLex(a.RHS, b.RHS) < 0
	})
}

// SplitRHS expands every FD into singleton-RHS FDs, the normal form used by
// left-reduced covers and by cover algebra.
func SplitRHS(fds []FD) []FD {
	out := make([]FD, 0, len(fds))
	for _, f := range fds {
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			rhs := make(bitset.Set, len(f.RHS))
			rhs.Add(a)
			out = append(out, FD{LHS: f.LHS, RHS: rhs})
		}
	}
	return out
}

// MergeByLHS groups FDs with equal LHSs, unioning their RHSs. The result
// has unique LHSs, sorted deterministically.
func MergeByLHS(fds []FD) []FD {
	byLHS := make(map[string]int)
	var out []FD
	for _, f := range fds {
		k := f.LHS.Key()
		if i, ok := byLHS[k]; ok {
			out[i].RHS.UnionWith(f.RHS)
			continue
		}
		byLHS[k] = len(out)
		out = append(out, FD{LHS: f.LHS.Clone(), RHS: f.RHS.Clone()})
	}
	Sort(out)
	return out
}

// Group is one distinct LHS of an FD list and the positions of the FDs
// sharing it: the unit of work of passes that build π_LHS once and then
// decide or score every FD over it.
type Group struct {
	LHS  bitset.Set
	Idxs []int
}

// GroupByLHS groups fds by LHS in first-seen order, with positions
// ascending within each group — deterministic, so serial and parallel
// passes over the groups see the same units.
func GroupByLHS(fds []FD) []Group {
	byKey := make(map[string]int, len(fds))
	var groups []Group
	var key []byte
	for i, f := range fds {
		key = f.LHS.AppendKey(key[:0])
		gi, ok := byKey[string(key)]
		if !ok {
			gi = len(groups)
			byKey[string(key)] = gi
			groups = append(groups, Group{LHS: f.LHS})
		}
		groups[gi].Idxs = append(groups[gi].Idxs, i)
	}
	return groups
}

// Count returns |Σ|, the number of FDs.
func Count(fds []FD) int { return len(fds) }

// AttrOccurrences returns ‖Σ‖, the total number of attribute occurrences
// over all LHSs and RHSs (the measure Table III reports). An empty LHS
// contributes zero.
func AttrOccurrences(fds []FD) int {
	n := 0
	for _, f := range fds {
		n += f.LHS.Count() + f.RHS.Count()
	}
	return n
}

// Equal reports whether two FD slices contain exactly the same FDs,
// disregarding order. Useful for cross-algorithm agreement tests.
func Equal(a, b []FD) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, f := range a {
		seen[f.Key()]++
	}
	for _, f := range b {
		k := f.Key()
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}

// Diff returns the FDs present in a but not b, and in b but not a, as
// human-readable strings. Intended for test failure messages.
func Diff(a, b []FD, names []string) (onlyA, onlyB []string) {
	inB := make(map[string]bool, len(b))
	for _, f := range b {
		inB[f.Key()] = true
	}
	inA := make(map[string]bool, len(a))
	for _, f := range a {
		inA[f.Key()] = true
	}
	for _, f := range a {
		if !inB[f.Key()] {
			onlyA = append(onlyA, f.Format(names))
		}
	}
	for _, f := range b {
		if !inA[f.Key()] {
			onlyB = append(onlyB, f.Format(names))
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}

// FormatAll renders a slice of FDs, one per line, with column names.
func FormatAll(fds []FD, names []string) string {
	var b strings.Builder
	for _, f := range fds {
		b.WriteString(f.Format(names))
		b.WriteByte('\n')
	}
	return b.String()
}
