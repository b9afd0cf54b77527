// Package mem models the machine's physical memory and cache hierarchy.
//
// Three things matter to the paper's argument and are modeled carefully:
//
//  1. Every write — whether it comes from a CPU store, a DMA engine, or a
//     legacy-interrupt-to-memory translation (MSI-X style) — is visible to
//     registered observers. The generalized monitor/mwait engine of §3.1/§4
//     ("hardware should monitor updates to any address by any source")
//     hangs off this hook.
//  2. Memory-mapped I/O: device registers live in an uncacheable address
//     range; the paper explicitly allows monitoring uncachable addresses.
//  3. A cache hierarchy with realistic hit/miss latencies, used to charge
//     load/store time and to model where thread state lives (§4).
//
// Addresses are byte-granular; data accesses are 8-byte words, and every
// int64 address names its own word (the ISA has no alignment rule). Words
// live in an insert-only open-addressed Table (words.go), because every
// simulated load, store, doorbell and DMA write indexes it; checkpoints list
// words in address order, so the table's layout never reaches any output.
package mem

import (
	"fmt"
	"strconv"

	"nocs/internal/trace"
)

// WriteSource identifies who performed a write, so observers (and
// experiments) can distinguish CPU stores from device DMA.
type WriteSource uint8

const (
	// SrcCPU is a store executed by a hardware thread.
	SrcCPU WriteSource = iota
	// SrcDMA is a device DMA write.
	SrcDMA
	// SrcMSI is a legacy interrupt translated to a memory write
	// ("hardware must translate external interrupts to memory writes", §4).
	SrcMSI
)

// String names the write source.
func (s WriteSource) String() string {
	switch s {
	case SrcCPU:
		return "cpu"
	case SrcDMA:
		return "dma"
	case SrcMSI:
		return "msi"
	}
	return fmt.Sprintf("src(%d)", uint8(s))
}

// WriteObserver receives a callback for every write to physical memory.
type WriteObserver interface {
	ObserveWrite(addr int64, val int64, src WriteSource)
}

// MMIOHandler implements a device register window.
type MMIOHandler interface {
	MMIORead(addr int64) int64
	MMIOWrite(addr int64, val int64)
}

type mmioRegion struct {
	base, size int64
	h          MMIOHandler
}

// Memory is the physical memory of the simulated machine: a sparse word
// store plus MMIO regions and write observers. The word store is a
// Table: a word exists from its first write on (a written zero
// included), unwritten words read as zero, and no word is ever removed. It
// is deliberately functional-only — timing is charged by the cache
// hierarchy, not here.
type Memory struct {
	words     Table[int64]
	regions   []mmioRegion
	observers []WriteObserver
	writes    uint64
	dmaWrites uint64
}

// NewMemory returns an empty physical memory.
func NewMemory() *Memory {
	return &Memory{words: NewTable[int64](0)}
}

// AddObserver registers o to see every subsequent write.
func (m *Memory) AddObserver(o WriteObserver) { m.observers = append(m.observers, o) }

// MapMMIO maps [base, base+size) to a device handler. Overlapping regions
// are rejected.
func (m *Memory) MapMMIO(base, size int64, h MMIOHandler) error {
	if size <= 0 {
		return fmt.Errorf("mem: MMIO region size %d", size)
	}
	for _, r := range m.regions {
		if base < r.base+r.size && r.base < base+size {
			return fmt.Errorf("mem: MMIO region [%#x,%#x) overlaps [%#x,%#x)",
				base, base+size, r.base, r.base+r.size)
		}
	}
	m.regions = append(m.regions, mmioRegion{base: base, size: size, h: h})
	return nil
}

// IsMMIO reports whether addr falls in a mapped device window. MMIO
// addresses are uncacheable.
func (m *Memory) IsMMIO(addr int64) bool { return m.region(addr) != nil }

func (m *Memory) region(addr int64) *mmioRegion {
	for i := range m.regions {
		r := &m.regions[i]
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

// Read returns the word at addr (MMIO reads go to the device).
func (m *Memory) Read(addr int64) int64 {
	if r := m.region(addr); r != nil {
		return r.h.MMIORead(addr)
	}
	return m.words.Get(addr)
}

// Write stores val at addr on behalf of src and notifies observers.
// MMIO writes go to the device handler but are still observable: the paper
// requires monitor to work on device registers.
func (m *Memory) Write(addr int64, val int64, src WriteSource) {
	m.writes++
	if src != SrcCPU {
		m.dmaWrites++
	}
	if r := m.region(addr); r != nil {
		r.h.MMIOWrite(addr, val)
	} else {
		m.words.Set(addr, val)
	}
	for _, o := range m.observers {
		o.ObserveWrite(addr, val, src)
	}
}

// Writes returns the total number of writes and the number that came from
// non-CPU sources.
func (m *Memory) Writes() (total, nonCPU uint64) { return m.writes, m.dmaWrites }

// DMA is a device-side port into memory. Devices hold a DMA rather than the
// Memory itself, which keeps the direction of dependency honest (devices
// cannot see CPU-side structure) and lets experiments disable DMA visibility.
type DMA struct {
	mem *Memory

	// Tracing (nil tr = off): every write through this port emits a
	// "dma-write" instant on the device's track.
	tr      *trace.Tracer
	trNow   func() int64
	trTrack trace.TrackID
}

// NewDMA returns a DMA port; its writes carry the SrcDMA tag.
func NewDMA(mem *Memory) *DMA {
	return &DMA{mem: mem}
}

// SetTracer attaches a tracer to this port; now supplies the current cycle
// and track is the device timeline to emit onto.
func (d *DMA) SetTracer(tr *trace.Tracer, now func() int64, track trace.TrackID) {
	d.tr = tr
	d.trNow = now
	d.trTrack = track
}

// Write performs a device write to physical memory.
func (d *DMA) Write(addr, val int64) {
	if d.tr != nil {
		d.tr.InstantArg(d.trTrack, "dma-write",
			"0x"+strconv.FormatInt(addr, 16)+"="+strconv.FormatInt(val, 10), d.trNow())
	}
	d.mem.Write(addr, val, SrcDMA)
}

// Read performs a device read from physical memory.
func (d *DMA) Read(addr int64) int64 { return d.mem.Read(addr) }

// WriteBytesAsWords stores a payload length in words starting at addr; the
// NIC uses this to model copying a packet body. Only the length matters to
// timing, but real words are written so that integrity checks in tests can
// verify DMA ordering relative to the doorbell write.
func (d *DMA) WriteBytesAsWords(addr int64, words []int64) {
	for i, w := range words {
		d.Write(addr+int64(i*8), w)
	}
}
