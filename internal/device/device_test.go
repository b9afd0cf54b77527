package device

import (
	"testing"

	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/mem"
	"nocs/internal/sim"
)

type fakeCore struct{ delays int }

func (f *fakeCore) InjectDelay(p hwthread.PTID, d sim.Cycles) { f.delays++ }
func (f *fakeCore) WakeFromHalt(p hwthread.PTID)              {}

func nicRig() (*sim.Shard, *mem.Memory, *NIC) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	dma := mem.NewDMA(m)
	nic := mustNIC(NICConfig{
		RingBase: 0x10000,
		BufBase:  0x20000,
		TailAddr: 0x30000,
		HeadAddr: 0x30008,
	}, eng, dma, Signal{})
	return eng, m, nic
}

func TestNICDeliverWritesEverything(t *testing.T) {
	eng, m, nic := nicRig()
	at := nic.Deliver([]int64{7, 8, 9})
	if at != nic.Config().DMACycles {
		t.Fatalf("predicted arrival %v", at)
	}
	eng.Run(0)
	if m.Read(0x30000) != 1 {
		t.Fatal("tail not advanced")
	}
	buf, length, ready := nic.ReadDesc(0)
	if !ready || length != 3 || buf != 0x20000 {
		t.Fatalf("desc: buf=%#x len=%d ready=%v", buf, length, ready)
	}
	if m.Read(0x20000) != 7 || m.Read(0x20008) != 8 || m.Read(0x20010) != 9 {
		t.Fatal("payload")
	}
	delivered, dropped := nic.Stats()
	if delivered != 1 || dropped != 0 {
		t.Fatalf("stats %d/%d", delivered, dropped)
	}
}

func TestNICTailWriteIsLastAndFromDMA(t *testing.T) {
	eng, m, nic := nicRig()
	var writes []int64
	var srcs []mem.WriteSource
	m.AddObserver(observerFunc(func(addr, val int64, src mem.WriteSource) {
		writes = append(writes, addr)
		srcs = append(srcs, src)
	}))
	nic.Deliver([]int64{1})
	eng.Run(0)
	if len(writes) == 0 || writes[len(writes)-1] != nic.TailAddr() {
		t.Fatalf("tail write not last: %v", writes)
	}
	for _, s := range srcs {
		if s != mem.SrcDMA {
			t.Fatal("NIC write not DMA-tagged")
		}
	}
}

type observerFunc func(addr, val int64, src mem.WriteSource)

func (f observerFunc) ObserveWrite(addr, val int64, src mem.WriteSource) { f(addr, val, src) }

func TestNICRingOverrunDrops(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	dma := mem.NewDMA(m)
	nic := mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000,
		TailAddr: 0x30000, HeadAddr: 0x30008,
		RingEntries: 2,
	}, eng, dma, Signal{})
	for i := 0; i < 4; i++ {
		nic.Deliver([]int64{int64(i)})
		eng.Run(0)
	}
	delivered, dropped := nic.Stats()
	if delivered != 2 || dropped != 2 {
		t.Fatalf("stats %d/%d: head never advanced, ring holds 2", delivered, dropped)
	}
	// Software consumes both; delivery resumes.
	m.Write(0x30008, 2, mem.SrcCPU)
	nic.Deliver([]int64{9})
	eng.Run(0)
	delivered, dropped = nic.Stats()
	if delivered != 3 || dropped != 2 {
		t.Fatalf("stats after consume %d/%d", delivered, dropped)
	}
}

func TestNICNoOverrunCheckWithoutHeadAddr(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	nic := mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
		RingEntries: 2,
	}, eng, mem.NewDMA(m), Signal{})
	for i := 0; i < 5; i++ {
		nic.Deliver([]int64{1})
	}
	eng.Run(0)
	delivered, dropped := nic.Stats()
	if delivered != 5 || dropped != 0 {
		t.Fatalf("stats %d/%d", delivered, dropped)
	}
}

func TestNICLegacyVector(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	ctrl := irq.NewController(eng)
	fired := 0
	fc := &fakeCore{}
	ctrl.Register(33, fc, 0, func(v irq.Vector, at sim.Cycles) sim.Cycles {
		fired++
		return 0
	})
	nic := mustNIC(NICConfig{RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000},
		eng, mem.NewDMA(m), Signal{IRQ: ctrl, Vector: 33})
	nic.Deliver([]int64{1})
	eng.Run(0)
	if fired != 1 {
		t.Fatalf("vector fired %d times", fired)
	}
}

func ssdRig() (*sim.Shard, *mem.Memory, *SSD) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	ssd := mustSSD(SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
		BaseLatency: 1000, PerWord: 2,
	}, eng, mem.NewDMA(m), Signal{})
	if err := m.MapMMIO(0x9000_0000, 8, ssd); err != nil {
		panic(err)
	}
	return eng, m, ssd
}

func TestSSDReadCommandCompletes(t *testing.T) {
	eng, m, ssd := ssdRig()
	ssd.WriteSQE(m, 0, OpRead, 1234, 8, 77)
	// Ring the doorbell through the MMIO path, as a CPU store would.
	m.Write(0x9000_0000, 1, mem.SrcCPU)
	if _, inFlight := ssd.Stats(); inFlight != 1 {
		t.Fatal("command not consumed")
	}
	eng.Run(0)
	if eng.Now() != 1000+2*8 {
		t.Fatalf("completion at %v, want 1016", eng.Now())
	}
	cid, status, ready := ssd.ReadCQE(0)
	if !ready || cid != 77 || status != 0 {
		t.Fatalf("cqe: %d/%d/%v", cid, status, ready)
	}
	if m.Read(0x60000) != 1 {
		t.Fatal("CQ tail not advanced")
	}
	completed, inFlight := ssd.Stats()
	if completed != 1 || inFlight != 0 {
		t.Fatalf("stats %d/%d", completed, inFlight)
	}
}

func TestSSDInvalidOpcodeStatus(t *testing.T) {
	eng, m, ssd := ssdRig()
	ssd.WriteSQE(m, 0, 9, 0, 0, 5)
	m.Write(0x9000_0000, 1, mem.SrcCPU)
	eng.Run(0)
	_, status, ready := ssd.ReadCQE(0)
	if !ready || status != 1 {
		t.Fatalf("bad-op status %d", status)
	}
}

func TestSSDBatchSubmission(t *testing.T) {
	eng, m, ssd := ssdRig()
	for i := int64(0); i < 4; i++ {
		ssd.WriteSQE(m, i, OpWrite, i*8, 4, 100+i)
	}
	m.Write(0x9000_0000, 4, mem.SrcCPU)
	eng.Run(0)
	completed, _ := ssd.Stats()
	if completed != 4 {
		t.Fatalf("completed %d", completed)
	}
	for i := int64(0); i < 4; i++ {
		cid, _, ready := ssd.ReadCQE(i)
		if !ready || cid != 100+i {
			t.Fatalf("cqe %d: cid=%d ready=%v", i, cid, ready)
		}
	}
	if m.Read(0x60000) != 4 {
		t.Fatal("CQ tail")
	}
}

func TestSSDDoorbellMonotonicAndHeadReadable(t *testing.T) {
	eng, m, ssd := ssdRig()
	ssd.WriteSQE(m, 0, OpRead, 0, 0, 1)
	m.Write(0x9000_0000, 1, mem.SrcCPU)
	m.Write(0x9000_0000, 0, mem.SrcCPU) // stale doorbell ignored
	eng.Run(0)
	if got := m.Read(0x9000_0000); got != 1 {
		t.Fatalf("head register %d", got)
	}
	// Writes to other offsets in the window are ignored.
	ssd.MMIOWrite(0x9000_0004, 9)
	if ssd.MMIORead(0x9000_0004) != 0 {
		t.Fatal("unknown register")
	}
}

func TestSSDCQTailLastOrdering(t *testing.T) {
	eng, m, ssd := ssdRig()
	var last int64
	m.AddObserver(observerFunc(func(addr, val int64, src mem.WriteSource) {
		if src == mem.SrcDMA {
			last = addr
		}
	}))
	ssd.WriteSQE(m, 0, OpRead, 0, 2, 3)
	m.Write(0x9000_0000, 1, mem.SrcCPU)
	eng.Run(0)
	if last != 0x60000 {
		t.Fatalf("last DMA write at %#x, want CQ tail", last)
	}
}

func TestSSDLegacyVector(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	ctrl := irq.NewController(eng)
	fired := 0
	ctrl.Register(40, &fakeCore{}, 0, func(irq.Vector, sim.Cycles) sim.Cycles { fired++; return 0 })
	ssd := mustSSD(SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
	}, eng, mem.NewDMA(m), Signal{IRQ: ctrl, Vector: 40})
	m.MapMMIO(0x9000_0000, 8, ssd)
	ssd.WriteSQE(m, 0, OpRead, 0, 0, 1)
	m.Write(0x9000_0000, 1, mem.SrcCPU)
	eng.Run(0)
	if fired != 1 {
		t.Fatalf("vector fired %d", fired)
	}
}

// TestNICDeliverAllocFree: once warm, Deliver through landRX allocates
// nothing — the in-flight arrival is a recycled body holding its own copy
// of the payload, so the caller's array may be reused at once.
func TestNICDeliverAllocFree(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	nic := mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000, HeadAddr: 0x30008,
		RingEntries: 4,
	}, eng, mem.NewDMA(m), Signal{})
	var seq int64
	deliver := func() {
		p := [...]int64{7, 8, seq}
		nic.Deliver(p[:])
		nic.Deliver(p[:])
		p[2] = -1 // the NIC holds its own copy
		eng.Run(0)
		m.Write(0x30008, m.Read(0x30000), mem.SrcCPU) // software consumed the ring
		seq++
	}
	for range 8 { // touch every ring slot's words once
		deliver()
	}
	if n := testing.AllocsPerRun(100, deliver); n != 0 {
		t.Errorf("Deliver+landRX allocates %v times", n)
	}
	if delivered, dropped := nic.Stats(); delivered != 2*(8+101) || dropped != 0 {
		t.Fatalf("delivered %d, dropped %d", delivered, dropped)
	}
	last := (m.Read(0x30000) - 1) % 4
	if got := m.Read(0x20000 + last*nic.Config().BufStride + 16); got != seq-1 {
		t.Fatalf("last packet landed word %d, want %d", got, seq-1)
	}
}
