package mem

import (
	"fmt"

	"nocs/internal/sim"
)

// Cache is a set-associative LRU cache model used for timing (and for the
// thread-state capacity accounting in internal/statestore). It tracks tags
// only; data always lives in Memory.
type Cache struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	HitCycles sim.Cycles

	sets   int
	tags   [][]int64 // per set, LRU order: front = most recent
	hits   uint64
	misses uint64
}

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
	c := &Cache{
		Name: name, SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways,
		HitCycles: hit, sets: sets,
	}
	c.tags = make([][]int64, sets)
	return c, nil
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

// Lookup probes the cache for addr, updating LRU state and inserting on
// miss (evicting the set's least-recently-used line when it is full). It
// reports whether the access hit.
func (c *Cache) Lookup(addr int64) bool {
	ln := c.line(addr)
	s := c.set(ln)
	ways := c.tags[s]
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
			// Fill a free way; append reallocates only at capacity.
			ways = append(ways, 0)
			c.tags[s] = ways
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
	for _, tag := range c.tags[c.set(ln)] {
		if tag == ln {
			return true
		}
	}
	return false
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
