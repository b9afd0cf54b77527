package nocs_test

import (
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// TestConsecutiveExceptions exercises §3.2's "Consecutive Exceptions":
// thread A divides by zero and is handled by thread B; B itself divides by
// zero while handling, and is handled by thread C; C resolves both. "Nothing
// prevents arbitrarily nested exceptions, so long as another thread C
// handles B's exceptions."
func TestConsecutiveExceptions(t *testing.T) {
	m := machine.New()
	c := m.Core(0)
	const (
		edpA = 0x2000
		edpB = 0x2100
	)

	a := asm.MustAssemble("A", `
main:
	movi r1, 5
	movi r2, 0
	div r3, r1, r2   ; fault #1
	movi r9, 1       ; resumed by B (eventually, via C)
	halt
`)
	// B: waits on A's doorbell, then itself faults before finishing.
	b := asm.MustAssemble("B", `
main:
	movi r1, 0x2000
	monitor r1
	mwait
	movi r4, 7
	movi r5, 0
	div r6, r4, r5   ; fault #2, while handling A's fault
	halt             ; never reached: C finishes the work instead
`)
	// C: waits on B's doorbell, then resolves everything — patches A past
	// its faulting instruction and restarts it (supervisor powers).
	c.RegisterNative("c.resolve", func(cc *core.Core, tc *hwthread.Context) sim.Cycles {
		cc.ArmWatches(tc, edpB+hwthread.DescCauseOff)
		d := hwthread.ReadDescriptor(cc.Mem(), edpB)
		if d.Cause == hwthread.ExcNone {
			if tc.State == hwthread.Runnable {
				cc.WaitArmed(tc)
			}
			return 0
		}
		hwthread.ClearDescriptor(cc.Mem(), edpB)
		// Resolve A's original fault: skip the div and restart A.
		da := hwthread.ReadDescriptor(cc.Mem(), edpA)
		if da.Cause != hwthread.ExcDivideByZero {
			t.Errorf("A's descriptor: %+v", da)
		}
		at := cc.Threads().Context(0)
		at.Regs.PC = da.PC + 1
		if err := cc.StartThreadSupervised(0); err != nil {
			t.Error(err)
		}
		return 100
	})
	cProg := asm.MustAssemble("C", "svc:\n\tnative c.resolve\n\tjmp svc")

	if err := c.BindProgram(0, a, "main"); err != nil {
		t.Fatal(err)
	}
	if err := c.BindProgram(1, b, "main"); err != nil {
		t.Fatal(err)
	}
	if err := c.BindProgram(2, cProg, "svc"); err != nil {
		t.Fatal(err)
	}
	c.Threads().Context(0).Regs.EDP = edpA
	c.Threads().Context(1).Regs.EDP = edpB
	c.Threads().Context(2).Regs.Mode = 1

	c.BootStart(2)
	c.BootStart(1)
	m.Run(0) // B and C park
	c.BootStart(0)
	m.Run(0)

	if err := m.Fatal(); err != nil {
		t.Fatalf("machine fatal: %v", err)
	}
	if got := c.Threads().Context(0).Regs.GPR[9]; got != 1 {
		t.Fatalf("A did not resume after the two-level chain (r9=%d)", got)
	}
	if c.Threads().Context(1).State != hwthread.Disabled {
		t.Fatal("B should be disabled by its own fault")
	}
}

// TestHandlerChainEndsInTripleFault: §3.2 "any handler chain must end
// somewhere, at a lowest-level kernel thread that does not have an exception
// handler. Triggering an exception in a thread without a handler ...
// indicates a serious kernel bug akin to a triple-fault."
func TestHandlerChainEndsInTripleFault(t *testing.T) {
	m := machine.New()
	c := m.Core(0)
	// A faults; B (its handler) faults too, and B has no EDP.
	a := asm.MustAssemble("A", "main:\n\tmovi r1, 1\n\tmovi r2, 0\n\tdiv r3, r1, r2\n\thalt")
	b := asm.MustAssemble("B", `
main:
	movi r1, 0x2000
	monitor r1
	mwait
	movi r4, 1
	movi r5, 0
	div r6, r4, r5   ; fault with no handler: machine-fatal
	halt
`)
	c.BindProgram(0, a, "main")
	c.BindProgram(1, b, "main")
	c.Threads().Context(0).Regs.EDP = 0x2000
	// B deliberately has EDP = 0.
	c.BootStart(1)
	m.Run(0)
	c.BootStart(0)
	m.Run(0)
	if err := m.Fatal(); err == nil {
		t.Fatal("expected triple-fault analog")
	} else if !strings.Contains(err.Error(), "no-handler") {
		t.Fatalf("fatal: %v", err)
	}
}

// TestMixedPersonalityMachine runs a legacy kernel on core 0 and a nocs
// kernel on core 1 of the same machine, simultaneously, sharing memory.
func TestMixedPersonalityMachine(t *testing.T) {
	m := machine.New(machine.WithCores(2))

	kl := kernel.NewLegacy(m.Core(0))
	kl.RegisterSyscall(1, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] * 2, 100
	})
	kn := kernel.NewNocs(m.Core(1))
	kn.RegisterSyscall(1, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] * 3, 100
	})
	if _, err := kn.ServeSyscalls([]hwthread.PTID{0}, 0x800000); err != nil {
		t.Fatal(err)
	}

	user := asm.MustAssemble("u", `
main:
	movi r1, 1
	movi r2, 10
	syscall
	mov r9, r1
	halt
`)
	m.Core(0).BindProgram(0, user, "main")
	m.Core(1).BindProgram(0, user, "main")
	m.Run(0)
	m.Core(0).BootStart(0)
	m.Core(1).BootStart(0)
	m.Run(0)
	if err := m.Fatal(); err != nil {
		t.Fatal(err)
	}
	if got := m.Core(0).Threads().Context(0).Regs.GPR[9]; got != 20 {
		t.Fatalf("legacy syscall result %d", got)
	}
	if got := m.Core(1).Threads().Context(0).Regs.GPR[9]; got != 30 {
		t.Fatalf("nocs syscall result %d", got)
	}
}

// TestEndToEndDeterminism runs a nontrivial machine (NIC + services + user
// threads) twice and demands bit-identical cycle counts.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (sim.Cycles, uint64) {
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		nic, err := m.NewNIC(device.NICConfig{
			RingBase: 0x100000, BufBase: 0x200000,
			TailAddr: 0x300000, HeadAddr: 0x300008,
		}, device.Signal{})
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		k.ServeDevice("rx", nic.TailAddr(), 0x300008, 500,
			func(seq int64, at sim.Cycles) { served++ })
		k.RegisterSyscall(1, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
			return args[0] + 1, 80
		})
		k.ServeSyscalls([]hwthread.PTID{0, 1}, 0x800000)
		user := asm.MustAssemble("u", `
main:
	movi r7, 0
loop:
	movi r1, 1
	mov r2, r7
	syscall
	mov r7, r1
	movi r8, 20
	blt r7, r8, loop
	halt
`)
		m.Core(0).BindProgram(0, user, "main")
		m.Core(0).BindProgram(1, user, "main")
		rng := sim.NewRNG(99)
		at := sim.Cycles(100)
		for i := 0; i < 30; i++ {
			at += sim.Cycles(rng.Exp(3000))
			i := i
			m.Shard(0).At(at, "pkt", func() { nic.Deliver([]int64{int64(i)}) })
		}
		m.Run(0)
		m.Core(0).BootStart(0)
		m.Core(0).BootStart(1)
		m.Run(0)
		if err := m.Fatal(); err != nil {
			t.Fatal(err)
		}
		if served != 30 {
			t.Fatalf("served %d packets", served)
		}
		return m.Now(), m.Retired()
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

// TestThousandThreadCore spins up a core with 1024 hardware threads — the
// paper's upper ambition — and runs a wave of thread-per-request work
// through it.
func TestThousandThreadCore(t *testing.T) {
	m := machine.New(machine.WithThreads(1024), machine.WithSMTSlots(4))
	k := kernel.NewNocs(m.Core(0))
	r := k.NewRequestRunner(500)
	done := 0
	const requests = 1000
	for i := 0; i < requests; i++ {
		if err := r.Start(hwthread.PTID(i), 2000, func(at sim.Cycles) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(0)
	if done != requests {
		t.Fatalf("completed %d of %d", done, requests)
	}
	// 1000 threads × 2000 cycles on 4 slots ≥ 500k cycles of span.
	if m.Now() < 400000 {
		t.Fatalf("implausibly fast: %v", m.Now())
	}
	// State storage must have spilled beyond the RF (only ~240 base
	// contexts fit in 64KB).
	if _, n := m.Core(0).StateStore().Occupancy(0); n >= 1024 {
		t.Fatal("RF held all 1024 contexts; spill expected")
	}
}
