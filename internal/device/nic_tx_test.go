package device

import (
	"testing"

	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/sim"
)

func txRig() (*sim.Shard, *mem.Memory, *NIC) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	nic := mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
		TXRingBase: 0x40000, TXDoorbell: 0x9100_0000, TXCompAddr: 0x50000,
		TXEntries: 4, TXCycles: 100,
	}, eng, mem.NewDMA(m), Signal{})
	if err := m.MapMMIO(0x9100_0000, 8, nic); err != nil {
		panic(err)
	}
	return eng, m, nic
}

func TestTXTransmitOnePacket(t *testing.T) {
	eng, m, nic := txRig()
	// Payload in a buffer, descriptor, doorbell.
	m.Write(0x60000, 7, mem.SrcCPU)
	m.Write(0x60008, 8, mem.SrcCPU)
	var wire [][]int64
	nic.OnTransmit = func(p []int64) { wire = append(wire, append([]int64(nil), p...)) }
	nic.WriteTXDesc(m, 0, 0x60000, 2)
	m.Write(0x9100_0000, 1, mem.SrcCPU) // doorbell via MMIO store
	eng.Run(0)
	if eng.Now() != 100 {
		t.Fatalf("tx completion at %v, want 100", eng.Now())
	}
	if len(wire) != 1 || wire[0][0] != 7 || wire[0][1] != 8 {
		t.Fatalf("wire: %v", wire)
	}
	if m.Read(0x50000) != 1 {
		t.Fatal("completion counter")
	}
	if m.Read(0x40000+16) != 1 {
		t.Fatal("descriptor done flag")
	}
	if nic.Transmitted() != 1 {
		t.Fatal("transmitted count")
	}
}

func TestTXBatchAndCompletionOrdering(t *testing.T) {
	eng, m, nic := txRig()
	var lastDMA int64
	m.AddObserver(observerFunc(func(addr, val int64, src mem.WriteSource) {
		if src == mem.SrcDMA {
			lastDMA = addr
		}
	}))
	for i := int64(0); i < 3; i++ {
		nic.WriteTXDesc(m, i, 0x60000+i*64, 1)
		m.Write(0x60000+i*64, 100+i, mem.SrcCPU)
	}
	m.Write(0x9100_0000, 3, mem.SrcCPU)
	eng.Run(0)
	if nic.Transmitted() != 3 {
		t.Fatalf("transmitted %d", nic.Transmitted())
	}
	if m.Read(0x50000) != 3 {
		t.Fatal("completion counter")
	}
	// Completion counter write is the last DMA write per packet.
	if lastDMA != 0x50000 {
		t.Fatalf("last DMA write at %#x, want completion counter", lastDMA)
	}
}

func TestTXStaleDoorbellIgnored(t *testing.T) {
	eng, m, nic := txRig()
	nic.WriteTXDesc(m, 0, 0x60000, 1)
	m.Write(0x9100_0000, 1, mem.SrcCPU)
	m.Write(0x9100_0000, 0, mem.SrcCPU) // stale
	eng.Run(0)
	if nic.Transmitted() != 1 {
		t.Fatalf("transmitted %d", nic.Transmitted())
	}
	// Head readable through the register.
	if m.Read(0x9100_0000) != 1 {
		t.Fatal("TX head register")
	}
}

func TestTXDisabledWithoutDoorbell(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	nic := mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
	}, eng, mem.NewDMA(m), Signal{})
	nic.MMIOWrite(0x1234, 5) // no-op
	if nic.MMIORead(0x1234) != 0 {
		t.Fatal("disabled TX register read")
	}
	if nic.Transmitted() != 0 {
		t.Fatal("phantom transmit")
	}
}

type wakeRecorder struct{ onWake func() }

func (w *wakeRecorder) MonitorWake(addr, val int64, src mem.WriteSource) { w.onWake() }

func TestTXCompletionWakesMonitor(t *testing.T) {
	// End-to-end with the monitor engine: a TX-completion thread sleeps on
	// the completion counter.
	eng, m, nic := txRig()
	woken := false
	obs := &wakeRecorder{onWake: func() { woken = true }}
	mon := monitor.NewEngine()
	m.AddObserver(mon)
	mon.Arm(obs, 0x50000)
	mon.Wait(obs)
	nic.WriteTXDesc(m, 0, 0x60000, 1)
	m.Write(0x9100_0000, 1, mem.SrcCPU)
	eng.Run(0)
	if !woken {
		t.Fatal("TX completion did not wake monitor waiter")
	}
}
