package mem

import (
	"cmp"
	"math/bits"
	"slices"
)

// wordTable is the sparse word store behind Memory: an insert-only,
// open-addressed int64 → int64 table. Slots live in one power-of-two array
// probed linearly from a multiplicative hash of the address; the table
// doubles when it is three quarters full. Address 0 marks an empty slot, so
// the word at address 0 is kept in its own field. Memory never forgets a
// word once written (a written zero is still a word the checkpoint lists),
// so the table has no delete and needs no tombstones.
//
// Every int64 is its own address: the ISA has no alignment rule, so
// unaligned and negative addresses are distinct words.
type wordTable struct {
	slots   []wordSlot
	shift   uint8 // 64 - log2(len(slots)): the hash keeps the top bits
	used    int   // occupied slots, not counting address 0
	zero    int64 // the word at address 0
	hasZero bool  // address 0 has been written
}

type wordSlot struct{ addr, val int64 }

// minWordSlots is the size of a new table.
const minWordSlots = 16

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing): it
// spreads strided addresses, such as one word per cache line, over the
// table's top bits.
const hashMul = 0x9e3779b97f4a7c15

// newWordTable returns a table that holds n words without growing.
func newWordTable(n int) wordTable {
	size := minWordSlots
	for size*3 < n*4 {
		size *= 2
	}
	return wordTable{slots: make([]wordSlot, size), shift: uint8(64 - bits.TrailingZeros(uint(size)))}
}

func (t *wordTable) home(addr int64) int {
	return int((uint64(addr) * hashMul) >> t.shift)
}

// get returns the word at addr, or 0 if it was never written.
func (t *wordTable) get(addr int64) int64 {
	if addr == 0 {
		return t.zero
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.addr == addr {
			return s.val
		}
		if s.addr == 0 {
			return 0
		}
	}
}

// set stores val at addr.
func (t *wordTable) set(addr, val int64) {
	if addr == 0 {
		t.zero, t.hasZero = val, true
		return
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.addr == addr {
			s.val = val
			return
		}
		if s.addr == 0 {
			s.addr, s.val = addr, val
			t.used++
			if t.used*4 > len(t.slots)*3 {
				t.grow()
			}
			return
		}
	}
}

// grow rehashes every word into a table twice the size.
func (t *wordTable) grow() {
	old := t.slots
	t.slots = make([]wordSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.addr == 0 {
			continue
		}
		i := t.home(s.addr)
		for t.slots[i].addr != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// len returns the number of words written.
func (t *wordTable) len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// sorted returns every word in increasing address order, so nothing that
// reads it depends on where the table placed a word.
func (t *wordTable) sorted() []wordSlot {
	out := make([]wordSlot, 0, t.len())
	if t.hasZero {
		out = append(out, wordSlot{0, t.zero})
	}
	for _, s := range t.slots {
		if s.addr != 0 {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b wordSlot) int { return cmp.Compare(a.addr, b.addr) })
	return out
}
