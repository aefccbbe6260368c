package relation

import (
	"bytes"
	"hash/maphash"
)

// dict is one column's dictionary: an open-addressing table from a
// value's bytes to its code. Codes are handed out in first-occurrence
// order, and the null codes of a column take their turn in that order
// (add), so neither the hash seed nor the slot order reaches a code.
//
// A slot holds the value's 32-bit hash and its code. The values sit back
// to back in arena in code order, code k ending at ends[k], so a hit
// compares bytes in place and allocates nothing; growth rehashes from the
// stored hashes without touching a value.
type dict struct {
	seed  maphash.Seed // the encoder's, shared by its columns
	slots []dictSlot   // power-of-two length, nil until the first value
	used  int          // occupied slots
	arena []byte       // every code's value, in code order
	ends  []int        // the end of each code's value in arena
}

// dictSlot is one table entry. ref is the code plus one, so a zero slot
// is empty.
type dictSlot struct {
	hash uint32
	ref  int32
}

// dictMinSlots is a fresh table's size.
const dictMinSlots = 64

// code returns v's code, giving v the next free code on its first
// occurrence.
//
//fd:hotpath
func (d *dict) code(v []byte) int32 {
	if 4*(d.used+1) > 3*len(d.slots) {
		d.grow()
	}
	h := uint32(maphash.Bytes(d.seed, v))
	mask := uint32(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.ref == 0 {
			code := d.add(v)
			*s = dictSlot{hash: h, ref: code + 1}
			d.used++
			return code
		}
		if s.hash == h && bytes.Equal(d.value(s.ref-1), v) {
			return s.ref - 1
		}
	}
}

// add gives v the next free code without filing it in the table: a null
// takes its code this way, so a lookup never finds it.
func (d *dict) add(v []byte) int32 {
	d.arena = append(d.arena, v...)
	d.ends = append(d.ends, len(d.arena))
	return int32(len(d.ends) - 1)
}

// value returns the bytes of code's value.
func (d *dict) value(code int32) []byte {
	start := 0
	if code > 0 {
		start = d.ends[code-1]
	}
	return d.arena[start:d.ends[code]]
}

// card is the number of codes handed out.
func (d *dict) card() int { return len(d.ends) }

// grow doubles the table and refiles every slot by its stored hash.
func (d *dict) grow() {
	old := d.slots
	d.slots = make([]dictSlot, max(2*len(old), dictMinSlots))
	mask := uint32(len(d.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.hash & mask
		for d.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

// strings returns every code's value as a string, in code order, all of
// them cut from one copy of the arena; nil when there is no code.
func (d *dict) strings() []string {
	if len(d.ends) == 0 {
		return nil
	}
	all := string(d.arena)
	out := make([]string, len(d.ends))
	start := 0
	for k, end := range d.ends {
		out[k] = all[start:end]
		start = end
	}
	return out
}
