package cover

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// index answers implication queries over a mutable FD set by walking a
// flat FD-tree: the LHS of an FD is a root-to-node path of ascending
// attributes, node 0 is the root (the empty LHS), and the children of a
// node sit next to each other in ascending attribute order. Each node
// keeps three attribute sets of words words each:
//
//   - its RHS, the RHS attributes of the FDs whose LHS is its path;
//   - its summary, a superset of the RHS attributes at or below it;
//   - its child mask, the attributes of its children.
//
// The child for attribute a is first[v] plus the rank of a in v's child
// mask, so a node's attribute is never stored. A closure walk only visits
// nodes whose path lies inside the closure, and skips a subtree whose
// summary does, instead of touching every FD the way counter-based
// LINCLOSURE does. On the large left-reduced covers of Table III, whose
// closures stay small, that is orders of magnitude faster.
type index struct {
	words  int      // words per attribute set
	stride int      // 3·words: a node's RHS, summary and child mask
	nodes  []uint64 // node v's sets: nodes[v·stride:][:stride]
	first  []int32  // first[v]: the position of node v's first child
	cl     []uint64 // the scalar walk's closure
}

// newIndex builds the index of fds straight from the list: sorted by LHS
// attribute list, the FDs below one node form one run, whose FDs ending
// at the node come first and whose longer ones group by their next
// attribute in ascending order.
func newIndex(numAttrs int, fds []dep.FD) *index {
	words := bitset.WordsFor(numAttrs)
	for _, f := range fds {
		words = max(words, len(f.LHS), len(f.RHS))
	}
	order := make([]int32, len(fds))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return compareLex(fds[i].LHS, fds[j].LHS) })
	// Sorted, each LHS adds the nodes past its common prefix with the
	// previous one.
	count := 1
	for k, i := range order {
		count += fds[i].LHS.Count()
		if k > 0 {
			count -= commonPrefix(fds[order[k-1]].LHS, fds[i].LHS)
		}
	}
	ix := &index{
		words:  words,
		stride: 3 * words,
		nodes:  make([]uint64, 3*words, count*3*words),
		first:  make([]int32, 1, count),
		cl:     make([]uint64, words),
	}
	ix.build(0, fds, order, 0)
	return ix
}

// build fills node v from order, the sorted run of FDs whose LHSs extend
// v's path with attributes from next on, appending v's children as one
// block and building each in turn.
func (ix *index) build(v int, fds []dep.FD, order []int32, next int) {
	w := ix.words
	node := ix.node(v)
	k := 0
	for ; k < len(order) && fds[order[k]].LHS.Next(next) < 0; k++ {
		orWords(node[:w], fds[order[k]].RHS)
	}
	rest := order[k:]
	mask := node[2*w:]
	children, prev := 0, -1
	for _, i := range rest {
		if a := fds[i].LHS.Next(next); a != prev {
			mask[a>>6] |= 1 << (a & 63)
			children, prev = children+1, a
		}
	}
	c := len(ix.first)
	ix.first[v] = int32(c)
	ix.first = ix.first[:c+children]
	ix.nodes = ix.nodes[:(c+children)*ix.stride]
	for lo, child := 0, c; lo < len(rest); child++ {
		a := fds[rest[lo]].LHS.Next(next)
		hi := lo + 1
		for hi < len(rest) && fds[rest[hi]].LHS.Next(next) == a {
			hi++
		}
		ix.build(child, fds, rest[lo:hi], a+1)
		lo = hi
	}
	node = ix.node(v)
	below := node[w : 2*w]
	copy(below, node[:w])
	for child := c; child < c+children; child++ {
		for i, b := range ix.node(child)[w : 2*w] {
			below[i] |= b
		}
	}
}

// node returns node v's RHS, summary and child mask, in that order.
func (ix *index) node(v int) []uint64 {
	return ix.nodes[v*ix.stride : (v+1)*ix.stride]
}

// rhs returns the RHS words of the node whose path is exactly lhs, nil
// when the index has no such node. Clearing a bit in them drops that FD
// from later walks and setting it restores the FD; the summaries above
// stay supersets either way.
func (ix *index) rhs(lhs bitset.Set) []uint64 {
	w := ix.words
	v := 0
	for i, x := range lhs {
		for ; x != 0; x &= x - 1 {
			bit := x & -x
			mask := ix.node(v)[2*w:]
			if mask[i]&bit == 0 {
				return nil
			}
			rank := bits.OnesCount64(mask[i] & (bit - 1))
			for _, m := range mask[:i] {
				rank += bits.OnesCount64(m)
			}
			v = int(ix.first[v]) + rank
		}
	}
	return ix.node(v)[:w]
}

// reaches reports whether the FD set implies x → {target}, and leaves
// in ix.cl the closure of x computed so far. The walk stops as soon as
// target is reached; pass target -1 to compute the whole closure.
//
//fd:hotpath
func (ix *index) reaches(x bitset.Set, target int) bool {
	cl := ix.cl
	n := copy(cl, x)
	clear(cl[n:])
	tw, tb := 0, uint64(0)
	if target >= 0 {
		tw, tb = target>>6, 1<<(target&63)
	}
	if cl[tw]&tb != 0 {
		return true
	}
	for {
		grew, hit := ix.collect(0, cl, tw, tb)
		if hit {
			return true
		}
		if !grew {
			return false
		}
	}
}

// collect walks node v and every child whose attribute is in cl,
// unioning RHSs into cl. It reports whether cl grew and whether it
// reached the target bit tb of word tw. It skips a child whose summary
// lies inside cl: that subtree could neither grow cl nor reach the
// target, which is outside cl until reached. After a child grows cl, the
// rest of the mask is recomputed, so attributes the child added are
// walked in the same pass.
//
//fd:hotpath
func (ix *index) collect(v int, cl []uint64, tw int, tb uint64) (grew, hit bool) {
	w := ix.words
	node := ix.node(v)
	for i, r := range node[:w] {
		if r&^cl[i] != 0 {
			cl[i] |= r
			grew = true
		}
	}
	if grew && cl[tw]&tb != 0 {
		return true, true
	}
	c0 := int(ix.first[v])
	for i, mw := range node[2*w:] {
		for m := mw & cl[i]; m != 0; {
			bit := m & -m
			m ^= bit
			c := c0 + bits.OnesCount64(mw&(bit-1))
			if isSubset(ix.node(c)[w:2*w], cl) {
				continue
			}
			g, h := ix.collect(c, cl, tw, tb)
			if h {
				return true, true
			}
			if g {
				grew = true
				m = mw & cl[i] &^ (bit<<1 - 1)
			}
		}
		c0 += bits.OnesCount64(mw)
	}
	return grew, false
}

// closeBatch computes the closures of k ≤ 64 sets at once: sets holds
// them one after another, words words each, and on return bit j of m[a]
// is set exactly when attribute a lies in the closure of set j. m needs
// 64·words masks.
//
//fd:hotpath
func (ix *index) closeBatch(sets []uint64, k int, m []uint64) {
	clear(m)
	w := ix.words
	for j := 0; j < k; j++ {
		for i, x := range sets[j*w : (j+1)*w] {
			for ; x != 0; x &= x - 1 {
				m[i<<6+bits.TrailingZeros64(x)] |= 1 << j
			}
		}
	}
	all := ^uint64(0) >> (64 - k)
	for ix.grow(0, all, m) {
	}
}

// grow is one pass of the batch walk at node v, entered with act, the
// sets whose closures hold v's path. v's RHS joins their closures, and a
// child is entered with the active sets whose closures hold its
// attribute, unless each of them already holds the child's whole
// summary. It reports whether any closure grew.
//
//fd:hotpath
func (ix *index) grow(v int, act uint64, m []uint64) (changed bool) {
	w := ix.words
	node := ix.node(v)
	for i, r := range node[:w] {
		for ; r != 0; r &= r - 1 {
			a := i<<6 + bits.TrailingZeros64(r)
			if act&^m[a] != 0 {
				m[a] |= act
				changed = true
			}
		}
	}
	c := int(ix.first[v])
	for i, mw := range node[2*w:] {
		for ; mw != 0; mw &= mw - 1 {
			ca := act & m[i<<6+bits.TrailingZeros64(mw)]
			if ca != 0 && !ix.holdsSummary(c, ca, m) && ix.grow(c, ca, m) {
				changed = true
			}
			c++
		}
	}
	return changed
}

// holdsSummary reports whether every set in act holds node c's whole
// summary in its closure.
func (ix *index) holdsSummary(c int, act uint64, m []uint64) bool {
	w := ix.words
	for i, b := range ix.node(c)[w : 2*w] {
		for ; b != 0; b &= b - 1 {
			if act&^m[i<<6+bits.TrailingZeros64(b)] != 0 {
				return false
			}
		}
	}
	return true
}

// windowSets bounds the sets one window of LeftReduce closes, and with
// it the window's memory: 1,024 sets of a schema up to 64 attributes take
// 24 KiB.
const windowSets = 1024

// window holds the closures of the distinct sets X∖{a} of the LHSs X of
// a run of consecutive FDs, computed 64 at a time by closeBatch, so the
// greedy loop of LeftReduce reads most of its answers instead of walking
// the index once per query. A query for a set the window lacks, such as
// one an earlier reduction shrank, falls back to the scalar walk.
type window struct {
	ix    *index
	limit int      // sets a window holds at most
	n     int      // sets held
	sets  []uint64 // set j: sets[j·words:][:words]
	slots []int32  // open-addressing table of set numbers, -1 when free
	shift uint     // 64 − log₂ len(slots)
	m     []uint64 // closures: bit j%64 of m[(j/64)·64·words + a]
	key   []uint64 // the set being probed, padded to words
}

// newWindow returns an empty window over ix that holds up to limit sets.
func newWindow(ix *index, limit int) *window {
	size := 2
	for size < 2*limit {
		size *= 2
	}
	batches := (limit + 63) / 64
	return &window{
		ix:    ix,
		limit: limit,
		sets:  make([]uint64, limit*ix.words),
		slots: make([]int32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		m:     make([]uint64, batches*64*ix.words),
		key:   make([]uint64, ix.words),
	}
}

// fill empties the window and collects the distinct X∖{a} of fds[lo:],
// one FD after another, while they fit. It returns the end of the run it
// took, at least one FD; an LHS with more attributes than the window
// holds sets keeps only the first ones.
func (wn *window) fill(fds []dep.FD, lo int) int {
	wn.n = 0
	for i := range wn.slots {
		wn.slots[i] = -1
	}
	hi := lo
	for ; hi < len(fds); hi++ {
		lhs := fds[hi].LHS
		if hi > lo && lhs.Equal(fds[hi-1].LHS) {
			continue
		}
		if hi > lo && wn.n+lhs.Count() > wn.limit {
			break
		}
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			wn.setKey(lhs)
			wn.key[a>>6] &^= 1 << (a & 63)
			if s := wn.probe(); wn.slots[s] < 0 && wn.n < wn.limit {
				wn.slots[s] = int32(wn.n)
				copy(wn.sets[wn.n*wn.ix.words:], wn.key)
				wn.n++
			}
		}
	}
	return hi
}

// closeSets computes the closures of the window's sets, 64 at a time.
func (wn *window) closeSets() {
	w := wn.ix.words
	for j := 0; j < wn.n; j += 64 {
		wn.ix.closeBatch(wn.sets[j*w:], min(64, wn.n-j), wn.m[j*w:(j+64)*w])
	}
}

// reaches reports whether the FD set implies x → {target}, from the
// window when it holds x.
func (wn *window) reaches(x bitset.Set, target int) bool {
	wn.setKey(x)
	if j := wn.slots[wn.probe()]; j >= 0 {
		return wn.m[int(j)/64*64*wn.ix.words+target]&(1<<(j%64)) != 0
	}
	return wn.ix.reaches(x, target)
}

// setKey copies x into key, padded with zero words.
func (wn *window) setKey(x bitset.Set) {
	n := copy(wn.key, x)
	clear(wn.key[n:])
}

// probe returns the slot of key: the slot holding it, or the free slot
// it would take.
func (wn *window) probe() int {
	h := uint64(0)
	for _, x := range wn.key {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	w := wn.ix.words
	mask := len(wn.slots) - 1
	for s := int(h >> wn.shift); ; s = (s + 1) & mask {
		j := int(wn.slots[s])
		if j < 0 || slices.Equal(wn.sets[j*w:(j+1)*w], wn.key) {
			return s
		}
	}
}

// orWords ORs s into dst, which is at least as wide.
func orWords(dst []uint64, s bitset.Set) {
	for i, x := range s {
		dst[i] |= x
	}
}

// isSubset reports whether a ⊆ b for sets of one width.
func isSubset(a, b []uint64) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// wordAt returns word i of s, 0 past its end.
func wordAt(s bitset.Set, i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// compareLex orders sets as bitset.CompareLex does, by their ascending
// attribute lists with a prefix first, but a word at a time: at the
// lowest attribute in one set only, the set holding it comes first unless
// the other has no attribute past it, in which case the other is a prefix.
func compareLex(a, b bitset.Set) int {
	for i := range max(len(a), len(b)) {
		x, y := wordAt(a, i), wordAt(b, i)
		if x == y {
			continue
		}
		low := (x ^ y) & -(x ^ y)
		if x&low != 0 {
			if hasAbove(b, i, low) {
				return -1
			}
			return 1
		}
		if hasAbove(a, i, low) {
			return 1
		}
		return -1
	}
	return 0
}

// hasAbove reports whether s holds an attribute past bit low of word i.
func hasAbove(s bitset.Set, i int, low uint64) bool {
	if wordAt(s, i)&^(low<<1-1) != 0 {
		return true
	}
	for _, x := range s[min(i+1, len(s)):] {
		if x != 0 {
			return true
		}
	}
	return false
}

// commonPrefix returns how many leading attributes the ascending
// attribute lists of a and b share.
func commonPrefix(a, b bitset.Set) int {
	n := 0
	for i := range max(len(a), len(b)) {
		x, y := wordAt(a, i), wordAt(b, i)
		if x != y {
			d := x ^ y
			return n + bits.OnesCount64(x&(d&-d-1))
		}
		n += bits.OnesCount64(x)
	}
	return n
}
