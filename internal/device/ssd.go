package device

import (
	"fmt"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
)

// NVMe-style queue entry layouts.
//
// Submission queue entry (32 bytes at SQBase + 32*slot):
//
//	+0:  opcode (1 = read, 2 = write)
//	+8:  LBA
//	+16: length in words
//	+24: command id
//
// Completion queue entry (24 bytes at CQBase + 24*slot):
//
//	+0:  command id
//	+8:  status (0 = ok)
//	+16: phase/ready flag
const (
	sqeBytes  = 32
	sqeOp     = 0
	sqeLBA    = 8
	sqeLen    = 16
	sqeCID    = 24
	cqeBytes  = 24
	cqeCID    = 0
	cqeStatus = 8
	cqeReady  = 16

	// OpRead and OpWrite are the SSD command opcodes.
	OpRead  = 1
	OpWrite = 2
)

// SSDConfig lays out an NVMe-ish queue pair.
type SSDConfig struct {
	// SQBase / CQBase are the queue base addresses.
	SQBase int64
	CQBase int64
	// Entries is the queue depth (default 64).
	Entries int
	// DoorbellAddr is the MMIO register software stores the new SQ tail to.
	DoorbellAddr int64
	// CQTailAddr is the monitorable completion-count word the device
	// advances after writing each CQE.
	CQTailAddr int64
	// BaseLatency is the fixed command service time (default 24000 cycles,
	// 8 µs @3GHz — fast-SSD territory, the regime the paper's §1 citations
	// [40, 49] target).
	BaseLatency sim.Cycles
	// PerWord is the additional transfer cost per payload word (default 2).
	PerWord sim.Cycles
}

func (c *SSDConfig) setDefaults() {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 24000
	}
	if c.PerWord == 0 {
		c.PerWord = 2
	}
}

// SSD is the storage device model. Its doorbell register is an MMIO window:
// map it with Memory.MapMMIO(DoorbellAddr, 8, ssd) and software rings it
// with an ordinary store instruction.
type SSD struct {
	cfg SSDConfig
	eng *sim.Shard
	dma *mem.DMA
	sig Signal

	sqHead    int64 // next SQ slot the device will consume
	sqTail    int64 // last doorbell value
	completed uint64
	inFlight  int

	// ops tracks in-flight command completions so they remain checkpointable
	// (DESIGN.md §13).
	ops []*ssdDone

	// inj injects delayed/reordered/dropped completions (nil = off).
	inj *faultinject.Injector
}

// ssdDone is one in-flight command completion.
type ssdDone struct {
	s    *SSD
	h    sim.Handle
	op   int64
	cid  int64
	slot int64 // completion slot (submission order)
}

// OnEvent writes the CQE and advances the monotonic CQ tail.
func (d *ssdDone) OnEvent() {
	s := d.s
	for i, q := range s.ops {
		if q == d {
			s.ops = append(s.ops[:i], s.ops[i+1:]...)
			break
		}
	}
	s.complete(d.op, d.cid, d.slot)
}

// SetFaultInjector arms completion fault injection (machine wiring).
func (s *SSD) SetFaultInjector(inj *faultinject.Injector) { s.inj = inj }

// Validate checks the configuration after defaults are applied.
func (c *SSDConfig) Validate() error {
	if c.SQBase == 0 {
		return fmt.Errorf("ssd: SQBase is required")
	}
	if c.CQBase == 0 {
		return fmt.Errorf("ssd: CQBase is required")
	}
	if c.DoorbellAddr == 0 {
		return fmt.Errorf("ssd: DoorbellAddr is required")
	}
	if c.CQTailAddr == 0 {
		return fmt.Errorf("ssd: CQTailAddr is required (the monitorable completion count)")
	}
	if c.Entries <= 0 {
		return fmt.Errorf("ssd: Entries %d must be positive", c.Entries)
	}
	if c.BaseLatency <= 0 {
		return fmt.Errorf("ssd: BaseLatency %d must be positive", c.BaseLatency)
	}
	if c.PerWord < 0 {
		return fmt.Errorf("ssd: PerWord %d must be non-negative", c.PerWord)
	}
	return nil
}

// NewSSD builds an SSD on the given DMA port. The config is validated after
// defaults are applied.
func NewSSD(cfg SSDConfig, eng *sim.Shard, dma *mem.DMA, sig Signal) (*SSD, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SSD{cfg: cfg, eng: eng, dma: dma, sig: sig}, nil
}

// Config returns the effective configuration.
func (s *SSD) Config() SSDConfig { return s.cfg }

var _ mem.MMIOHandler = (*SSD)(nil)

// MMIORead exposes the current SQ head so drivers can compute free slots.
func (s *SSD) MMIORead(addr int64) int64 {
	if addr == s.cfg.DoorbellAddr {
		return s.sqHead
	}
	return 0
}

// MMIOWrite is the doorbell: software publishes a new SQ tail and the device
// begins consuming submissions.
func (s *SSD) MMIOWrite(addr int64, val int64) {
	if addr != s.cfg.DoorbellAddr {
		return
	}
	if val > s.sqTail {
		s.sqTail = val
	}
	s.consume()
}

// consume pulls pending SQEs and schedules their completions.
func (s *SSD) consume() {
	for s.sqHead < s.sqTail {
		slot := s.sqHead % int64(s.cfg.Entries)
		sqe := s.cfg.SQBase + slot*sqeBytes
		length := s.dma.Read(sqe + sqeLen)
		cid := s.dma.Read(sqe + sqeCID)
		op := s.dma.Read(sqe + sqeOp)
		s.sqHead++
		s.inFlight++
		lat := s.cfg.BaseLatency + s.cfg.PerWord*sim.Cycles(length)
		// Fault injection: completions can land late or be dropped and
		// redelivered; the CQ tail is an increment so reordered completions
		// keep it consistent.
		if extra := s.inj.DMADelivery("ssd-done"); extra > 0 {
			lat += extra
		}
		completionSlot := s.sqHead - 1 // preserves submission order slots
		d := &ssdDone{s: s, op: op, cid: cid, slot: completionSlot}
		d.h = s.eng.AfterCallback(lat, "ssd-done", d)
		s.ops = append(s.ops, d)
	}
}

// complete writes one CQE and advances the monotonic CQ tail (doorbell
// ordering: tail last).
func (s *SSD) complete(op, cid, completionSlot int64) {
	status := int64(0)
	if op != OpRead && op != OpWrite {
		status = 1
	}
	cq := s.cfg.CQBase + (completionSlot%int64(s.cfg.Entries))*cqeBytes
	s.dma.Write(cq+cqeCID, cid)
	s.dma.Write(cq+cqeStatus, status)
	s.dma.Write(cq+cqeReady, 1)
	s.dma.Write(s.cfg.CQTailAddr, s.dma.Read(s.cfg.CQTailAddr)+1)
	s.completed++
	s.inFlight--
	s.sig.raise()
}

// WriteSQE is a driver helper: fill submission slot for command n.
func (s *SSD) WriteSQE(m *mem.Memory, n int64, op, lba, length, cid int64) {
	slot := n % int64(s.cfg.Entries)
	sqe := s.cfg.SQBase + slot*sqeBytes
	m.Write(sqe+sqeOp, op, mem.SrcCPU)
	m.Write(sqe+sqeLBA, lba, mem.SrcCPU)
	m.Write(sqe+sqeLen, length, mem.SrcCPU)
	m.Write(sqe+sqeCID, cid, mem.SrcCPU)
}

// ReadCQE decodes completion slot i.
func (s *SSD) ReadCQE(i int64) (cid, status int64, ready bool) {
	cq := s.cfg.CQBase + (i%int64(s.cfg.Entries))*cqeBytes
	return s.dma.Read(cq + cqeCID), s.dma.Read(cq + cqeStatus), s.dma.Read(cq+cqeReady) != 0
}

// Stats returns (completed, inFlight).
func (s *SSD) Stats() (completed uint64, inFlight int) { return s.completed, s.inFlight }

// String describes the SSD.
func (s *SSD) String() string {
	return fmt.Sprintf("ssd{depth=%d doorbell=%#x}", s.cfg.Entries, s.cfg.DoorbellAddr)
}
