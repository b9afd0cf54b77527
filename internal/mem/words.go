package mem

import (
	"cmp"
	"math/bits"
	"slices"
)

// Table is an insert-only, open-addressed map from int64 addresses to V:
// the word store behind Memory, and the monitor's per-address waiter
// lists. Slots live in one power-of-two array probed linearly from a
// multiplicative hash of the address; the table doubles when it is three
// quarters full. Address 0 marks an empty slot, so the entry at address 0
// is kept in its own field. An entry stays once set (Memory never forgets
// a word, and a written zero is still a word the checkpoint lists), so the
// table has no delete and needs no tombstones; a restore builds a new one.
//
// Every int64 is its own address: the ISA has no alignment rule, so
// unaligned and negative addresses are distinct entries.
type Table[V any] struct {
	slots   []Slot[V]
	shift   uint8 // 64 - log2(len(slots)): the hash keeps the top bits
	used    int   // occupied slots, not counting address 0
	zero    V     // the entry at address 0
	hasZero bool  // address 0 has been set
}

// Slot is one entry of a Table.
type Slot[V any] struct {
	Addr int64
	Val  V
}

// minTableSlots is the size of a new table.
const minTableSlots = 16

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing): it
// spreads strided addresses, such as one word per cache line, over the
// table's top bits.
const hashMul = 0x9e3779b97f4a7c15

// NewTable returns a table that holds n entries without growing.
func NewTable[V any](n int) Table[V] {
	size := minTableSlots
	for size*3 < n*4 {
		size *= 2
	}
	return Table[V]{slots: make([]Slot[V], size), shift: uint8(64 - bits.TrailingZeros(uint(size)))}
}

func (t *Table[V]) home(addr int64) int {
	return int((uint64(addr) * hashMul) >> t.shift)
}

// Get returns the entry at addr, or the zero V if it was never set.
func (t *Table[V]) Get(addr int64) V {
	if addr == 0 {
		return t.zero
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.Addr == addr {
			return s.Val
		}
		if s.Addr == 0 {
			var none V
			return none
		}
	}
}

// Set stores val at addr.
func (t *Table[V]) Set(addr int64, val V) {
	if addr == 0 {
		t.zero, t.hasZero = val, true
		return
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.Addr == addr {
			s.Val = val
			return
		}
		if s.Addr == 0 {
			s.Addr, s.Val = addr, val
			t.used++
			if t.used*4 > len(t.slots)*3 {
				t.grow()
			}
			return
		}
	}
}

// grow rehashes every entry into a table twice the size.
func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]Slot[V], 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.Addr == 0 {
			continue
		}
		i := t.home(s.Addr)
		for t.slots[i].Addr != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Len returns the number of entries set.
func (t *Table[V]) Len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// Sorted returns every entry in increasing address order, so nothing that
// reads it depends on where the table placed an entry.
func (t *Table[V]) Sorted() []Slot[V] {
	out := make([]Slot[V], 0, t.Len())
	if t.hasZero {
		out = append(out, Slot[V]{0, t.zero})
	}
	for _, s := range t.slots {
		if s.Addr != 0 {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Slot[V]) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}
