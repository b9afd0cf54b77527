package mem

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nocs/internal/sim"
)

// Cache is a set-associative LRU cache model used for timing (and for the
// thread-state capacity accounting in internal/statestore). It tracks tags
// only; data always lives in Memory.
//
// The tags live in pointer-free arrays that fill as the cache is used. The
// arena is a run of Ways-line blocks; set s holds fill[s] lines, most
// recent first, at the front of block block[s]-1, or has no block while
// block[s] is 0. A set gets its block on its first fill, and fill and block
// are made on the cache's first fill, so a cache nobody touches costs only
// its header.
type Cache struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	HitCycles sim.Cycles

	sets   int
	fill   []uint8 // per set: lines held, at most Ways
	block  []int32 // per set: 1 + index of its block in arena, 0 = none
	arena  []int64 // Ways-line blocks, each in LRU order
	hits   uint64
	misses uint64
}

// ErrCacheGeometry is returned by NewCache for a geometry the tag store's
// counters cannot hold: more ways than a set's uint8 fill count, or more
// sets than an int32 block index.
var ErrCacheGeometry = errors.New("mem: cache geometry exceeds the tag store's counters")

// NewCache builds a cache. sizeBytes must be a multiple of lineBytes*ways.
func NewCache(name string, sizeBytes, lineBytes, ways int, hit sim.Cycles) (*Cache, error) {
	if lineBytes <= 0 || ways <= 0 || sizeBytes <= 0 {
		return nil, fmt.Errorf("mem: cache %q: non-positive geometry", name)
	}
	lines := sizeBytes / lineBytes
	if lines*lineBytes != sizeBytes {
		return nil, fmt.Errorf("mem: cache %q: size %d not a multiple of line %d", name, sizeBytes, lineBytes)
	}
	sets := lines / ways
	if sets == 0 || sets*ways != lines {
		return nil, fmt.Errorf("mem: cache %q: %d lines not divisible into %d ways", name, lines, ways)
	}
	if ways > math.MaxUint8 || sets > math.MaxInt32 {
		return nil, fmt.Errorf("%w: cache %q has %d sets of %d ways", ErrCacheGeometry, name, sets, ways)
	}
	return &Cache{
		Name: name, SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways,
		HitCycles: hit, sets: sets,
	}, nil
}

// MustNewCache panics on a bad geometry; for fixed configurations.
func MustNewCache(name string, sizeBytes, lineBytes, ways int, hit sim.Cycles) *Cache {
	c, err := NewCache(name, sizeBytes, lineBytes, ways, hit)
	if err != nil {
		panic(err)
	}
	return c
}

// line is the index of the line holding addr, rounded toward minus
// infinity so that addresses -LineBytes..-1 share one line below line 0.
func (c *Cache) line(addr int64) int64 {
	ln := addr / int64(c.LineBytes)
	if addr%int64(c.LineBytes) < 0 {
		ln--
	}
	return ln
}

// set is the set a line maps to, in [0, sets) for negative lines too.
func (c *Cache) set(line int64) int {
	s := line % int64(c.sets)
	if s < 0 {
		s += int64(c.sets)
	}
	return int(s)
}

// setLines returns the lines set s holds, most recent first, aliasing its
// block.
func (c *Cache) setLines(s int) []int64 {
	if c.fill == nil || c.fill[s] == 0 {
		return nil
	}
	off := int(c.block[s]-1) * c.Ways
	return c.arena[off : off+int(c.fill[s])]
}

// resize sets set s to hold n lines and returns them, giving the set its
// block (and the cache its per-set arrays) first if it has none. Lines past
// the set's old fill hold unspecified values.
func (c *Cache) resize(s, n int) []int64 {
	if c.fill == nil {
		c.fill = make([]uint8, c.sets)
		c.block = make([]int32, c.sets)
	}
	if c.block[s] == 0 {
		c.arena = append(c.arena, make([]int64, c.Ways)...)
		c.block[s] = int32(len(c.arena) / c.Ways)
	}
	c.fill[s] = uint8(n)
	off := int(c.block[s]-1) * c.Ways
	return c.arena[off : off+n]
}

// emptySets empties sets lo..hi-1, keeping their blocks.
func (c *Cache) emptySets(lo, hi int) {
	if c.fill != nil {
		clear(c.fill[lo:hi])
	}
}

// Lookup probes the cache for addr, updating LRU state and inserting on
// miss (evicting the set's least-recently-used line when it is full). It
// reports whether the access hit.
func (c *Cache) Lookup(addr int64) bool {
	ln := c.line(addr)
	s := c.set(ln)
	ways := c.setLines(s)
	i := 0
	for i < len(ways) && ways[i] != ln {
		i++
	}
	hit := i < len(ways)
	if hit {
		c.hits++
	} else {
		c.misses++
		if len(ways) < c.Ways {
			// Fill a free way; only a set's first fill allocates.
			ways = c.resize(s, len(ways)+1)
		}
		i = len(ways) - 1
	}
	// Move to front (most recently used).
	copy(ways[1:i+1], ways[:i])
	ways[0] = ln
	return hit
}

// Contains probes without updating LRU or stats.
func (c *Cache) Contains(addr int64) bool {
	ln := c.line(addr)
	return slices.Contains(c.setLines(c.set(ln)), ln)
}

// Hierarchy is a three-level cache stack over DRAM with an uncacheable MMIO
// path. Timing: an access pays the hit latency of every level it probes, and
// the DRAM latency if it misses everywhere — the standard serial-lookup
// approximation.
type Hierarchy struct {
	L1, L2, L3 *Cache
	DRAMCycles sim.Cycles
	MMIOCycles sim.Cycles
	mem        *Memory

	accesses uint64
	dramHits uint64
}

// HierarchyConfig sizes a cache stack. Zero values select the defaults
// below, which follow contemporary server parts (and the paper's §4
// references: 512 KB private L2, multi-MB L3).
type HierarchyConfig struct {
	L1Bytes, L2Bytes, L3Bytes int
	LineBytes                 int
	L1Ways, L2Ways, L3Ways    int
	L1Hit, L2Hit, L3Hit       sim.Cycles
	DRAM                      sim.Cycles
	MMIO                      sim.Cycles
}

func (c *HierarchyConfig) setDefaults() {
	if c.L1Bytes == 0 {
		c.L1Bytes = 32 << 10
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 512 << 10
	}
	if c.L3Bytes == 0 {
		c.L3Bytes = 8 << 20
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.L1Ways == 0 {
		c.L1Ways = 8
	}
	if c.L2Ways == 0 {
		c.L2Ways = 8
	}
	if c.L3Ways == 0 {
		c.L3Ways = 16
	}
	if c.L1Hit == 0 {
		c.L1Hit = 4
	}
	if c.L2Hit == 0 {
		c.L2Hit = 14
	}
	if c.L3Hit == 0 {
		c.L3Hit = 40
	}
	if c.DRAM == 0 {
		c.DRAM = 200
	}
	if c.MMIO == 0 {
		c.MMIO = 120
	}
}

// NewHierarchy builds a cache stack bound to mem.
func NewHierarchy(mem *Memory, cfg HierarchyConfig) *Hierarchy {
	cfg.setDefaults()
	return &Hierarchy{
		L1:         MustNewCache("L1", cfg.L1Bytes, cfg.LineBytes, cfg.L1Ways, cfg.L1Hit),
		L2:         MustNewCache("L2", cfg.L2Bytes, cfg.LineBytes, cfg.L2Ways, cfg.L2Hit),
		L3:         MustNewCache("L3", cfg.L3Bytes, cfg.LineBytes, cfg.L3Ways, cfg.L3Hit),
		DRAMCycles: cfg.DRAM,
		MMIOCycles: cfg.MMIO,
		mem:        mem,
	}
}

// AccessCycles charges the cache hierarchy for one access to addr and
// returns its latency. MMIO addresses bypass the caches entirely.
func (h *Hierarchy) AccessCycles(addr int64) sim.Cycles {
	h.accesses++
	if h.mem != nil && h.mem.IsMMIO(addr) {
		return h.MMIOCycles
	}
	lat := h.L1.HitCycles
	if h.L1.Lookup(addr) {
		return lat
	}
	lat += h.L2.HitCycles
	if h.L2.Lookup(addr) {
		return lat
	}
	lat += h.L3.HitCycles
	if h.L3.Lookup(addr) {
		return lat
	}
	h.dramHits++
	return lat + h.DRAMCycles
}
