package mem

import (
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
// pins not in strictly increasing order.
var ErrCacheState = errors.New("mem: snapshot cache state is not reachable")

// SnapshotState writes the word store (sorted by address for deterministic
// bytes) and write counters.
func (m *Memory) SnapshotState(w *snapshot.W) {
	words := m.words.sorted()
	w.Len(len(words))
	for _, s := range words {
		w.I64(s.addr).I64(s.val)
	}
	w.U64(m.writes).U64(m.dmaWrites)
}

// RestoreState replaces the word store and counters with the checkpoint's.
// Addresses must be strictly increasing (ErrWordOrder).
func (m *Memory) RestoreState(r *snapshot.R) error {
	n := r.Len(16)
	words := newWordTable(n)
	var prev int64
	for i := 0; i < n; i++ {
		a, v := r.I64(), r.I64() // Len(16) bounded n, so these cannot fail
		if i > 0 && a <= prev {
			return fmt.Errorf("%w: word %d at %#x follows %#x", ErrWordOrder, i, a, prev)
		}
		prev = a
		words.set(a, v)
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
// tag lists in LRU order, pinned lines, and hit/miss counters.
func (c *Cache) SnapshotState(w *snapshot.W) {
	w.String(c.Name)
	w.I64(int64(c.SizeBytes)).I64(int64(c.LineBytes)).I64(int64(c.Ways))
	w.Len(c.sets)
	for _, ways := range c.tags {
		w.I64s(ways)
	}
	pins := make([]int64, 0, len(c.pinned))
	for ln := range c.pinned {
		pins = append(pins, ln)
	}
	slices.Sort(pins)
	w.I64s(pins)
	w.U64(c.hits).U64(c.misses)
}

// RestoreState replaces the cache's dynamic state; the stored geometry must
// match this cache's, and the tag and pin lists must be ones a live cache
// could hold (ErrCacheState).
func (c *Cache) RestoreState(r *snapshot.R) error {
	name := r.String()
	size, line, ways := r.I64(), r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if name != c.Name || int(size) != c.SizeBytes || int(line) != c.LineBytes || int(ways) != c.Ways {
		return fmt.Errorf("mem: cache %q geometry mismatch (snapshot %q %d/%d/%d, live %d/%d/%d)",
			c.Name, name, size, line, ways, c.SizeBytes, c.LineBytes, c.Ways)
	}
	sets := r.Len(4)
	if r.Err() == nil && sets != c.sets {
		return fmt.Errorf("mem: cache %q has %d sets, snapshot has %d", c.Name, c.sets, sets)
	}
	tags := make([][]int64, sets)
	for i := 0; i < sets; i++ {
		tags[i] = r.I64s()
	}
	pins := r.I64s()
	hits, misses := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if err := c.checkState(tags, pins); err != nil {
		return err
	}
	c.tags = tags
	c.pinned = make(map[int64]bool, len(pins))
	for _, ln := range pins {
		c.pinned[ln] = true
	}
	c.hits, c.misses = hits, misses
	return nil
}

// checkState rejects tag and pin lists no live cache holds: insert keeps a
// set at Ways lines or fewer, files each line under set(line), and never
// lists a line twice; SnapshotState writes pins sorted and pinned is a set.
func (c *Cache) checkState(tags [][]int64, pins []int64) error {
	for s, ways := range tags {
		if len(ways) > c.Ways {
			return fmt.Errorf("%w: cache %q set %d holds %d lines, %d ways", ErrCacheState, c.Name, s, len(ways), c.Ways)
		}
		for i, ln := range ways {
			if c.set(ln) != s {
				return fmt.Errorf("%w: cache %q line %#x filed under set %d", ErrCacheState, c.Name, ln, s)
			}
			if slices.Contains(ways[:i], ln) {
				return fmt.Errorf("%w: cache %q line %#x listed twice in set %d", ErrCacheState, c.Name, ln, s)
			}
		}
	}
	for i := 1; i < len(pins); i++ {
		if pins[i] <= pins[i-1] {
			return fmt.Errorf("%w: cache %q pin %#x follows %#x", ErrCacheState, c.Name, pins[i], pins[i-1])
		}
	}
	return nil
}

// SnapshotState writes all three cache levels plus the hierarchy counters.
func (h *Hierarchy) SnapshotState(w *snapshot.W) {
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
