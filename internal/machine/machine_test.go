package machine

import (
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/irq"
	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

func TestNewZeroOptions(t *testing.T) {
	m := New()
	if m.Cores() != 1 || m.Core(0) == nil {
		t.Fatal("default machine shape")
	}
	if m.Core(1) != nil || m.Core(-1) != nil {
		t.Fatal("out-of-range core")
	}
	if m.Now() != 0 || m.Fatal() != nil {
		t.Fatal("fresh machine state")
	}
	if !m.Monitor().DMAVisible {
		t.Fatal("default machine must have paper-semantics monitoring")
	}
}

func TestMachineOptionsCompose(t *testing.T) {
	tr := trace.New()
	m := New(
		WithName("opt"),
		WithCores(2),
		WithThreads(8),
		WithSMTSlots(2),
		WithTracer(tr),
	)
	if m.Cores() != 2 {
		t.Fatalf("cores %d", m.Cores())
	}
	if m.Tracer() != tr {
		t.Fatal("tracer not attached")
	}
	if m.Core(1).Threads().Context(7) == nil || m.Core(1).Threads().Context(8) != nil {
		t.Fatal("WithThreads(8) not applied")
	}
	// The tracer must be threaded through every layer under the "opt/"
	// prefix; running a trivial program proves the wiring end to end.
	prog := asm.MustAssemble("p", "main:\n\tmovi r1, 1\n\thalt")
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	procs := map[string]bool{}
	for _, tk := range tr.Tracks() {
		if !strings.HasPrefix(tk.Process, "opt/") {
			t.Fatalf("track process %q missing machine name prefix", tk.Process)
		}
		procs[tk.Process] = true
	}
	for _, want := range []string{"opt/engine", "opt/monitor", "opt/core0"} {
		if !procs[want] {
			t.Fatalf("no %q track group (have %v)", want, procs)
		}
	}
	if err := tr.CheckNesting(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineZeroCoresRecovers(t *testing.T) {
	if m := New(WithCores(0)); m.Cores() != 1 {
		t.Fatalf("cores %d: a zero core count must recover a one-core machine", m.Cores())
	}
}

func TestMultiCoreSharedMemoryAndMonitor(t *testing.T) {
	m := New(WithCores(2))
	waiter := asm.MustAssemble("w", `
main:
	movi r1, 4096
	monitor r1
	mwait
	ld r2, [r1+0]
	halt
`)
	writer := asm.MustAssemble("s", `
main:
	movi r1, 4096
	movi r2, 31
	st [r1+0], r2
	halt
`)
	// Waiter on core 0, writer on core 1: cross-core wakeup through shared
	// memory and the machine-wide monitor engine.
	if err := m.Core(0).BindProgram(0, waiter, "main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Core(1).BindProgram(0, writer, "main"); err != nil {
		t.Fatal(err)
	}
	m.Core(0).BootStart(0)
	m.Core(1).BootStart(0)
	m.Run(0)
	got := m.Core(0).Threads().Context(0).Regs.GPR[2]
	if got != 31 {
		t.Fatalf("cross-core wake value %d", got)
	}
	if m.Retired() == 0 {
		t.Fatal("retired counter")
	}
}

func TestDMAInvisibleMachine(t *testing.T) {
	m := New(WithDMAMonitorVisible(false))
	if m.Monitor().DMAVisible {
		t.Fatal("A2 machine should hide DMA writes from monitor")
	}
}

func TestMachineNICDelivery(t *testing.T) {
	m := New()
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	prog := asm.MustAssemble("rx", `
main:
	movi r1, 0x30000
	monitor r1
	mwait
	ld r2, [r1+0]   ; tail count
	halt
`)
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).BootStart(0)
	m.Run(0) // waiter parks
	nic.Deliver([]int64{5})
	m.Run(0)
	if got := m.Core(0).Threads().Context(0).Regs.GPR[2]; got != 1 {
		t.Fatalf("rx tail read %d", got)
	}
}

func TestMachineSSDAttachAndDoorbellViaStore(t *testing.T) {
	m := New()
	ssd, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
		BaseLatency: 100,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	ssd.WriteSQE(m.Mem(), 0, device.OpRead, 0, 0, 9)
	// Ring the doorbell from simulated software via an ST instruction.
	prog := asm.MustAssemble("drv", `
main:
	movi r1, 0x90000000
	movi r2, 1
	st [r1+0], r2
	halt
`)
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	cid, status, ready := ssd.ReadCQE(0)
	if !ready || cid != 9 || status != 0 {
		t.Fatalf("cqe %d/%d/%v", cid, status, ready)
	}
}

func TestMachineSSDDoorbellCollision(t *testing.T) {
	m := New()
	if _, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
	}, device.Signal{}); err != nil {
		t.Fatal(err)
	}
	_, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x41000, CQBase: 0x51000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x61000,
	}, device.Signal{})
	if err == nil || !strings.Contains(err.Error(), "doorbell") {
		t.Fatalf("collision error: %v", err)
	}
}

func TestMachineFatalPropagates(t *testing.T) {
	m := New(WithCores(2), WithThreads(4))
	prog := asm.MustAssemble("f", "main:\n\tmovi r1, 1\n\tmovi r2, 0\n\tdiv r3, r1, r2\n\thalt")
	m.Core(1).BindProgram(0, prog, "main")
	m.Core(1).BootStart(0)
	m.Run(0)
	if m.Fatal() == nil {
		t.Fatal("machine fatal not propagated")
	}
}

func TestIRQPathOnMachine(t *testing.T) {
	// Legacy-mode NIC: vector delivery steals time from the victim thread
	// and slows its progress relative to an undisturbed run.
	elapsed := func(withIRQs bool) int64 {
		m := New()
		prog := asm.MustAssemble("busy", `
main:
	movi r1, 0
	movi r2, 300
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`)
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		if withIRQs {
			m.IRQ().Register(33, m.Core(0), 0, func(v irq.Vector, at sim.Cycles) sim.Cycles {
				return 200 // handler body
			})
			nic, err := m.NewNIC(device.NICConfig{
				RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
			}, device.Signal{IRQ: m.IRQ(), Vector: 33})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				nic.Deliver([]int64{1})
			}
		}
		m.Run(0)
		return int64(m.Now())
	}
	quiet := elapsed(false)
	noisy := elapsed(true)
	// 5 interrupts × (600 entry + 200 handler + 300 exit) = 5500 stolen, but
	// interrupts landing after the loop finishes steal nothing; require a
	// meaningful slowdown.
	if noisy <= quiet {
		t.Fatalf("IRQs did not slow the victim: %d vs %d", noisy, quiet)
	}
	_ = mem.SrcCPU
}
