package sync

import (
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
)

// hostileWakes is the adversarial plan: EVERY mwait park receives a
// spurious wakeup shortly after blocking, so no waiter ever gets to sleep
// through to its real signal.
func hostileWakes() machine.Option {
	return machine.WithFaultPlan(faultinject.Plan{
		Seed: 7, SpuriousWakeP: 1, SpuriousDelay: 100,
	})
}

// TestCondVarSurvivesSpuriousWakes is the missed-signal regression test for
// the wait-loop idiom: the consumer parks for a condition under a fault
// plan that fires a spurious wake after every park. Because the loop
// re-arms the monitor BEFORE every re-check (gen.go waitWhileEq), a wake
// that consumed the watch set costs one lap around the loop but can never
// swallow the producer's signal. A waiter that re-checked before re-arming
// would deadlock here.
func TestCondVarSurvivesSpuriousWakes(t *testing.T) {
	const condBase, dataAddr, outAddr = 0x1200, 0x2300, 0x2400
	mu := ParkingMutex{F: Nocs}
	cv := CondVar{F: Nocs}
	r := testRegs()

	cons := NewGen("cons")
	cons.Label("entry")
	mu.EmitAcquire(cons, r)
	cons.I("mov r10, r13")
	cv.EmitSnapshot(cons, r)
	cons.I("mov r10, r15")
	mu.EmitRelease(cons, r)
	cons.I("mov r10, r13")
	cv.EmitWaitChanged(cons, r)
	cons.I("mov r10, r15")
	mu.EmitAcquire(cons, r)
	cons.I("ld r5, [r14+0]")
	cons.I("st [r6+0], r5")
	mu.EmitRelease(cons, r)
	cons.I("halt")

	prod := NewGen("prod")
	prod.Label("entry")
	// A long lead: the consumer parks and is then spuriously woken over and
	// over before the real signal ever arrives.
	prod.I("movi r9, 20000")
	w, s := prod.L("warm"), prod.L("sig")
	prod.Label(w)
	prod.I("beq r9, r8, %s", s)
	prod.I("addi r9, r9, -1")
	prod.I("jmp %s", w)
	prod.Label(s)
	mu.EmitAcquire(prod, r)
	prod.I("movi r5, 77")
	prod.I("st [r14+0], r5")
	prod.I("mov r10, r13")
	cv.EmitSignal(prod, r)
	prod.I("mov r10, r15")
	mu.EmitRelease(prod, r)
	prod.I("halt")

	m := machine.New(machine.WithThreads(2), machine.WithSMTSlots(2), hostileWakes())
	c := m.Core(0)
	for i, src := range []string{cons.Source(), prod.Source()} {
		p := hwthread.PTID(i)
		prog := asm.MustAssemble(fmt.Sprintf("hostile-cond-%d", i), src)
		if err := c.BindProgram(p, prog, "entry"); err != nil {
			t.Fatal(err)
		}
		ctx := c.Threads().Context(p)
		ctx.Regs.GPR[6] = outAddr
		ctx.Regs.GPR[10] = lockBase
		ctx.Regs.GPR[13] = condBase
		ctx.Regs.GPR[14] = dataAddr
		ctx.Regs.GPR[15] = lockBase
	}
	for i := 0; i < 2; i++ {
		if err := c.BootStart(hwthread.PTID(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.RunUntil(5_000_000)
	if !allHalted(m, 2) {
		t.Fatal("threads still live at deadline — a spurious wake swallowed the signal")
	}
	if got := m.Mem().Read(outAddr); got != 77 {
		t.Fatalf("consumer read %d, want 77", got)
	}
	stats := m.FaultInjector().Stats()
	if stats.SpuriousWakes == 0 {
		t.Fatal("no spurious wakes fired — the regression test exercised nothing")
	}
}

// TestLocksSurviveSpuriousWakes runs every nocs parking lock's contended
// mutual-exclusion loop under the same hostile plan: constant false
// wakeups may cost laps, but can neither break exclusion nor strand a
// parked waiter.
func TestLocksSurviveSpuriousWakes(t *testing.T) {
	const workers, iters = 4, 10
	for _, kind := range []Kind{TAS, TTAS, MCS, Mutex} {
		t.Run(kind.String(), func(t *testing.T) {
			l, err := NewLock(kind, Nocs, false)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(machine.WithThreads(workers), machine.WithSMTSlots(2), hostileWakes())
			bootThreads(t, m, lockLoopProgram(l, iters), workers)
			m.RunUntil(10_000_000)
			if !allHalted(m, workers) {
				t.Fatalf("%v/nocs: threads still live at deadline under spurious wakes", kind)
			}
			if got := m.Mem().Read(cntAddr); got != workers*iters {
				t.Fatalf("%v/nocs: counter = %d, want %d (spurious wake broke exclusion)",
					kind, got, workers*iters)
			}
			if m.FaultInjector().Stats().SpuriousWakes == 0 {
				t.Fatalf("%v/nocs: no spurious wakes fired", kind)
			}
		})
	}
}
