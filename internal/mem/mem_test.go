package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

type recordingObserver struct {
	addrs []int64
	vals  []int64
	srcs  []WriteSource
}

func (r *recordingObserver) ObserveWrite(addr, val int64, src WriteSource) {
	r.addrs = append(r.addrs, addr)
	r.vals = append(r.vals, val)
	r.srcs = append(r.srcs, src)
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read(0x100) != 0 {
		t.Fatal("uninitialized memory not zero")
	}
	m.Write(0x100, 42, SrcCPU)
	if m.Read(0x100) != 42 {
		t.Fatal("read after write")
	}
	total, nonCPU := m.Writes()
	if total != 1 || nonCPU != 0 {
		t.Fatalf("writes = %d/%d", total, nonCPU)
	}
}

func TestMemoryObservers(t *testing.T) {
	m := NewMemory()
	var obs recordingObserver
	m.AddObserver(&obs)
	m.Write(8, 1, SrcCPU)
	m.Write(16, 2, SrcDMA)
	m.Write(24, 3, SrcMSI)
	if len(obs.addrs) != 3 {
		t.Fatalf("observed %d writes", len(obs.addrs))
	}
	if obs.srcs[0] != SrcCPU || obs.srcs[1] != SrcDMA || obs.srcs[2] != SrcMSI {
		t.Fatalf("sources: %v", obs.srcs)
	}
	_, nonCPU := m.Writes()
	if nonCPU != 2 {
		t.Fatalf("nonCPU = %d, want 2", nonCPU)
	}
}

func TestWriteSourceString(t *testing.T) {
	if SrcCPU.String() != "cpu" || SrcDMA.String() != "dma" || SrcMSI.String() != "msi" {
		t.Fatal("source names")
	}
	if WriteSource(9).String() == "" {
		t.Fatal("unknown source has empty name")
	}
}

type fakeMMIO struct {
	regs map[int64]int64
}

func (f *fakeMMIO) MMIORead(addr int64) int64       { return f.regs[addr] }
func (f *fakeMMIO) MMIOWrite(addr int64, val int64) { f.regs[addr] = val }

func TestMMIORouting(t *testing.T) {
	m := NewMemory()
	dev := &fakeMMIO{regs: make(map[int64]int64)}
	if err := m.MapMMIO(0x1000, 0x100, dev); err != nil {
		t.Fatal(err)
	}
	if !m.IsMMIO(0x1000) || !m.IsMMIO(0x10ff) || m.IsMMIO(0x1100) || m.IsMMIO(0xfff) {
		t.Fatal("IsMMIO bounds")
	}
	m.Write(0x1008, 7, SrcCPU)
	if dev.regs[0x1008] != 7 {
		t.Fatal("MMIO write did not reach device")
	}
	if m.Read(0x1008) != 7 {
		t.Fatal("MMIO read did not come from device")
	}
	// MMIO writes must still be observable (paper: monitor device registers).
	var obs recordingObserver
	m.AddObserver(&obs)
	m.Write(0x1010, 9, SrcDMA)
	if len(obs.addrs) != 1 || obs.addrs[0] != 0x1010 {
		t.Fatal("MMIO write not observed")
	}
}

func TestMMIOOverlapRejected(t *testing.T) {
	m := NewMemory()
	dev := &fakeMMIO{regs: make(map[int64]int64)}
	if err := m.MapMMIO(0x1000, 0x100, dev); err != nil {
		t.Fatal(err)
	}
	if err := m.MapMMIO(0x10f0, 0x100, dev); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := m.MapMMIO(0x2000, 0, dev); err == nil {
		t.Fatal("zero-size region accepted")
	}
	if err := m.MapMMIO(0x1100, 0x10, dev); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
}

func TestDMAPort(t *testing.T) {
	m := NewMemory()
	var obs recordingObserver
	m.AddObserver(&obs)
	d := NewDMA(m)
	d.Write(64, 5)
	if d.Read(64) != 5 {
		t.Fatal("DMA read/write")
	}
	d.WriteBytesAsWords(128, []int64{1, 2, 3})
	if m.Read(128) != 1 || m.Read(136) != 2 || m.Read(144) != 3 {
		t.Fatal("WriteBytesAsWords layout")
	}
	if len(obs.addrs) != 4 {
		t.Fatalf("observed %d writes, want 4", len(obs.addrs))
	}
	for _, s := range obs.srcs {
		if s != SrcDMA {
			t.Fatal("DMA write not tagged SrcDMA")
		}
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := NewCache("x", 0, 64, 8, 1); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewCache("x", 100, 64, 8, 1); err == nil {
		t.Fatal("non-multiple size accepted")
	}
	if _, err := NewCache("x", 128, 64, 8, 1); err == nil {
		t.Fatal("fewer lines than ways accepted")
	}
	if _, err := NewCache("x", 64<<10, 64, 8, 4); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCache should panic")
		}
	}()
	MustNewCache("x", 0, 64, 8, 1)
}

func TestCacheHitMiss(t *testing.T) {
	c := MustNewCache("t", 1024, 64, 2, 4) // 16 lines, 8 sets, 2 ways
	if c.Lookup(0) {
		t.Fatal("cold access hit")
	}
	if !c.Lookup(0) || !c.Lookup(63) {
		t.Fatal("warm access missed (same line)")
	}
	if c.Lookup(64) {
		t.Fatal("different line hit")
	}
	if c.hits != 2 || c.misses != 2 {
		t.Fatalf("stats %d/%d", c.hits, c.misses)
	}
}

// TestCacheNegativeAddresses: lines are floor(addr/LineBytes), so a negative
// address neither shares line 0 nor indexes a negative set.
func TestCacheNegativeAddresses(t *testing.T) {
	c := MustNewCache("t", 1024, 64, 2, 4) // 8 sets, 2 ways
	if c.Lookup(-128) || c.Lookup(-64) {
		t.Fatal("cold negative access hit")
	}
	if !c.Lookup(-1) {
		t.Fatal("-64 and -1 are on one line, but -1 missed")
	}
	if c.Lookup(0) {
		t.Fatal("-1 and 0 are on two lines, but 0 hit")
	}
	if !c.Contains(-128) || !c.Contains(-33) || !c.Contains(63) {
		t.Fatal("a touched line is missing")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := MustNewCache("t", 256, 64, 2, 4) // 4 lines, 2 sets, 2 ways
	// Set 0 holds lines 0, 2, 4, ... (line % 2 == 0).
	c.Lookup(0 * 64) // line 0 -> set 0
	c.Lookup(2 * 64) // line 2 -> set 0
	c.Lookup(0 * 64) // touch line 0: line 2 is now LRU
	c.Lookup(4 * 64) // line 4 evicts line 2
	if !c.Contains(0 * 64) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(2 * 64) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(4 * 64) {
		t.Fatal("new line not inserted")
	}
}

// TestCacheFillZeroAlloc: a miss into a set that is not yet full inserts in
// the set's own block, most recent first, so once the set has its block a
// fill allocates nothing.
func TestCacheFillZeroAlloc(t *testing.T) {
	c := MustNewCache("t", 1024, 64, 4, 4) // 4 sets, 4 ways
	fill := func() {
		c.emptySets(0, 1)
		for _, ln := range []int64{0, 4, 8, 12} { // all in set 0
			c.Lookup(ln * 64)
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("filling a set with room allocates %v times per run, want 0", n)
	}
	if got, want := c.setLines(0), []int64{12, 8, 4, 0}; !slices.Equal(got, want) {
		t.Fatalf("set 0 holds %v, want %v in LRU order", got, want)
	}
}

// TestCacheUntouchedCostsItsHeader: building the default 8 MiB, 16-way L3
// (8,192 sets) allocates the Cache and nothing else. An untouched cache's
// section must still be what checkpoints hold for an empty cache: its
// geometry, one zero count per set, the empty pin list and zero counters.
// Snapshotting it leaves it untouched.
func TestCacheUntouchedCostsItsHeader(t *testing.T) {
	var c *Cache
	if n := testing.AllocsPerRun(10, func() { c = MustNewCache("L3", 8<<20, 64, 16, 40) }); n != 1 {
		t.Fatalf("NewCache of an 8 MiB, 16-way cache allocates %v times, want 1 (the header)", n)
	}
	want := encodeSection(t, "cache", func(w *snapshot.W) {
		w.String("L3").I64(8 << 20).I64(64).I64(16).Len(8192)
		for range 8192 {
			w.Len(0)
		}
		w.Len(0).U64(0).U64(0)
	})
	if got := encodeSection(t, "cache", c.SnapshotState); !bytes.Equal(got, want) {
		t.Fatal("an untouched cache encodes differently from an empty one")
	}
	if c.fill != nil || c.block != nil || c.arena != nil {
		t.Fatal("snapshotting an untouched cache gave it tag arrays")
	}
}

// TestCacheGeometryOutgrowsCounters: a set's fill count is a uint8, so a
// cache of more than 255 ways is refused by name, never built to count
// wrong; 255 ways still fill and evict as LRU.
func TestCacheGeometryOutgrowsCounters(t *testing.T) {
	if _, err := NewCache("x", 2*256*64, 64, 256, 1); !errors.Is(err, ErrCacheGeometry) {
		t.Fatalf("256 ways: error %v, want ErrCacheGeometry", err)
	}
	c, err := NewCache("x", 255*64, 64, 255, 1) // one set of 255 ways
	if err != nil {
		t.Fatalf("255 ways rejected: %v", err)
	}
	for ln := range int64(256) {
		c.Lookup(ln * 64)
	}
	if got := len(c.setLines(0)); got != 255 {
		t.Fatalf("a full 255-way set holds %d lines", got)
	}
	if c.Contains(0) || !c.Contains(1*64) || !c.Contains(255*64) {
		t.Fatal("the 256th fill did not evict exactly the LRU line")
	}
}

// LRU stack property: any address that hits in a k-way cache also hits in a
// (k+n)-way cache of proportionally larger size, given the same trace.
func TestCacheInclusionProperty(t *testing.T) {
	f := func(trace []uint16) bool {
		small := MustNewCache("s", 2048, 64, 4, 1) // 8 sets x 4 ways
		large := MustNewCache("l", 4096, 64, 8, 1) // 8 sets x 8 ways
		for _, a := range trace {
			addr := int64(a)
			hs := small.Lookup(addr)
			hl := large.Lookup(addr)
			if hs && !hl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	m := NewMemory()
	h := NewHierarchy(m, HierarchyConfig{})
	// Cold: pays L1+L2+L3+DRAM.
	cold := h.AccessCycles(0)
	want := h.L1.HitCycles + h.L2.HitCycles + h.L3.HitCycles + h.DRAMCycles
	if cold != want {
		t.Fatalf("cold access %d, want %d", cold, want)
	}
	// Warm: L1 hit only.
	if got := h.AccessCycles(0); got != h.L1.HitCycles {
		t.Fatalf("warm access %d, want %d", got, h.L1.HitCycles)
	}
	if total, dram := h.accesses, h.dramHits; total != 2 || dram != 1 {
		t.Fatalf("accesses %d/%d", total, dram)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	m := NewMemory()
	h := NewHierarchy(m, HierarchyConfig{L1Bytes: 512, LineBytes: 64, L1Ways: 2})
	// Fill L1 set 0 (2 ways, 4 sets -> lines 0,4,8 map to set 0).
	h.AccessCycles(0 * 64)
	h.AccessCycles(4 * 64)
	h.AccessCycles(8 * 64) // evicts line 0 from L1; L2 still has it
	got := h.AccessCycles(0 * 64)
	want := h.L1.HitCycles + h.L2.HitCycles
	if got != want {
		t.Fatalf("L2 hit cost %d, want %d", got, want)
	}
}

func TestHierarchyMMIOBypassesCaches(t *testing.T) {
	m := NewMemory()
	dev := &fakeMMIO{regs: make(map[int64]int64)}
	if err := m.MapMMIO(0x10000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(m, HierarchyConfig{})
	c1 := h.AccessCycles(0x10008)
	c2 := h.AccessCycles(0x10008)
	if c1 != h.MMIOCycles || c2 != h.MMIOCycles {
		t.Fatalf("MMIO accesses %d,%d want %d both times", c1, c2, h.MMIOCycles)
	}
	if h.L1.Contains(0x10008) {
		t.Fatal("MMIO line cached")
	}
}

func TestHierarchyDefaultsOrdering(t *testing.T) {
	h := NewHierarchy(NewMemory(), HierarchyConfig{})
	if !(h.L1.HitCycles < h.L2.HitCycles && h.L2.HitCycles < h.L3.HitCycles && sim.Cycles(0) < h.L1.HitCycles) {
		t.Fatal("latency ordering broken")
	}
	if !(h.L1.SizeBytes < h.L2.SizeBytes && h.L2.SizeBytes < h.L3.SizeBytes) {
		t.Fatal("size ordering broken")
	}
}
