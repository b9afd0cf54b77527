package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). Memory serializes its word store and
// write counters; MMIO regions and observers are wiring, re-created when the
// restore target machine is constructed. Caches serialize their full LRU
// orders — replacement state is timing-visible, so a restored run must warm
// and evict exactly as the straight-through run would.
//
// Each codec has exactly one encoding per state, and restore accepts only
// that encoding: whatever a RestoreState accepts re-encodes to the bytes it
// read (FuzzMemoryRestore).

// ErrWordOrder is returned when a memory section does not list its words in
// strictly increasing address order, the only order SnapshotState writes.
// A repeated address would restore one word from two entries.
var ErrWordOrder = errors.New("mem: snapshot words not in strictly increasing address order")

// ErrCacheState is returned when a cache section's tag or pin lists could
// not have been written by a live cache: a set holding more than Ways
// lines, a line filed under another set, a line listed twice in its set, or
// a pin list that is not empty (no cache pins a line).
var ErrCacheState = errors.New("mem: snapshot cache state is not reachable")

// SnapshotState writes the word store (sorted by address for deterministic
// bytes) and write counters.
func (m *Memory) SnapshotState(w *snapshot.W) {
	words := m.words.Sorted()
	w.Len(len(words))
	for _, s := range words {
		w.I64(s.Addr).I64(s.Val)
	}
	w.U64(m.writes).U64(m.dmaWrites)
}

// RestoreState replaces the word store and counters with the checkpoint's.
// Addresses must be strictly increasing (ErrWordOrder).
func (m *Memory) RestoreState(r *snapshot.R) error {
	n := r.Len(16)
	words := NewTable[int64](n)
	var prev int64
	for i := 0; i < n; i++ {
		a, v := r.I64(), r.I64() // Len(16) bounded n, so these cannot fail
		if i > 0 && a <= prev {
			return fmt.Errorf("%w: word %d at %#x follows %#x", ErrWordOrder, i, a, prev)
		}
		prev = a
		words.Set(a, v)
	}
	writes := r.U64()
	dma := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	m.words = words
	m.writes = writes
	m.dmaWrites = dma
	return nil
}

// SnapshotState writes the cache's geometry (validated on restore), per-set
// tag lists in LRU order, an empty pin list, and hit/miss counters. No
// cache pins a line, but the pin list stays in the section so checkpoints
// keep their bytes. The set block is most of a checkpoint's bytes, so it is
// reserved at its exact size and each set encoded straight into it: a u32
// count, then that many lines. An untouched cache's block is all zero
// counts, cleared in one step.
func (c *Cache) SnapshotState(w *snapshot.W) {
	w.String(c.Name)
	w.I64(int64(c.SizeBytes)).I64(int64(c.LineBytes)).I64(int64(c.Ways))
	w.Len(c.sets)
	buf := w.Reserve(c.setBlockBytes())
	if c.fill == nil {
		clear(buf)
	}
	for s, n := range c.fill {
		binary.LittleEndian.PutUint32(buf, uint32(n))
		buf = buf[4:]
		for _, ln := range c.setLines(s) {
			binary.LittleEndian.PutUint64(buf, uint64(ln))
			buf = buf[8:]
		}
	}
	w.Len(0) // the pin list
	w.U64(c.hits).U64(c.misses)
}

// setBlockBytes is the encoded size of the per-set tag lists.
func (c *Cache) setBlockBytes() int {
	n := 4 * c.sets
	for _, f := range c.fill {
		n += 8 * int(f)
	}
	return n
}

// stateBytes is the encoded size of SnapshotState's output.
func (c *Cache) stateBytes() int {
	return 4 + len(c.Name) + 3*8 + 4 + c.setBlockBytes() + 4 + 2*8
}

// RestoreState replaces the cache's dynamic state in place: each set's tag
// list is decoded into that set's existing block, and only a non-empty set
// without one gets a block, so restoring empty sets allocates nothing. Runs
// of empty sets are skipped eight bytes at a time. The stored geometry must
// match this cache's, and the tag and pin lists must be ones a live cache
// could hold (ErrCacheState): Lookup keeps a set at Ways lines or fewer,
// files each line under set(line), and never lists a line twice, and no
// cache pins a line. A refused section leaves the cache unspecified.
func (c *Cache) RestoreState(r *snapshot.R) error {
	name := r.StringBytes()
	size, line, ways := r.I64(), r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if string(name) != c.Name || int(size) != c.SizeBytes || int(line) != c.LineBytes || int(ways) != c.Ways {
		return fmt.Errorf("mem: cache %q geometry mismatch (snapshot %q %d/%d/%d, live %d/%d/%d)",
			c.Name, name, size, line, ways, c.SizeBytes, c.LineBytes, c.Ways)
	}
	sets := r.Len(4)
	if r.Err() == nil && sets != c.sets {
		return fmt.Errorf("mem: cache %q has %d sets, snapshot has %d", c.Name, c.sets, sets)
	}
	for s := 0; s < sets; {
		if z := r.SkipZeroU32s(sets - s); z > 0 {
			c.emptySets(s, s+z)
			s += z
			continue
		}
		if err := c.restoreSet(r, s); err != nil {
			return err
		}
		s++
	}
	if n := r.Len(8); n != 0 {
		return fmt.Errorf("%w: cache %q pins %d lines", ErrCacheState, c.Name, n)
	}
	c.hits, c.misses = r.U64(), r.U64()
	return r.Err()
}

// restoreSet decodes set s's tag list into the set's block.
func (c *Cache) restoreSet(r *snapshot.R, s int) error {
	n := r.Len(8)
	if n > c.Ways {
		return fmt.Errorf("%w: cache %q set %d holds %d lines, %d ways", ErrCacheState, c.Name, s, n, c.Ways)
	}
	if n == 0 { // a failed read: SkipZeroU32s takes every zero count
		c.emptySets(s, s+1)
		return r.Err()
	}
	ways := c.resize(s, n)
	for i := range ways {
		ln := r.I64() // Len(8) bounded n, so these cannot fail
		if c.set(ln) != s {
			return fmt.Errorf("%w: cache %q line %#x filed under set %d", ErrCacheState, c.Name, ln, s)
		}
		if slices.Contains(ways[:i], ln) {
			return fmt.Errorf("%w: cache %q line %#x listed twice in set %d", ErrCacheState, c.Name, ln, s)
		}
		ways[i] = ln
	}
	return r.Err()
}

// SnapshotState writes all three cache levels plus the hierarchy counters,
// into a payload grown once to hold them all.
func (h *Hierarchy) SnapshotState(w *snapshot.W) {
	w.Grow(h.L1.stateBytes() + h.L2.stateBytes() + h.L3.stateBytes() + 2*8)
	h.L1.SnapshotState(w)
	h.L2.SnapshotState(w)
	h.L3.SnapshotState(w)
	w.U64(h.accesses).U64(h.dramHits)
}

// RestoreState restores all three cache levels and the hierarchy counters.
func (h *Hierarchy) RestoreState(r *snapshot.R) error {
	if err := h.L1.RestoreState(r); err != nil {
		return err
	}
	if err := h.L2.RestoreState(r); err != nil {
		return err
	}
	if err := h.L3.RestoreState(r); err != nil {
		return err
	}
	h.accesses = r.U64()
	h.dramHits = r.U64()
	return r.Err()
}
