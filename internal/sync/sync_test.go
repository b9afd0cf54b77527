package sync

import (
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
)

// Memory layout shared by the tests.
const (
	lockBase = 0x1000
	cntAddr  = 0x2000
	logIdx   = 0x2100
	logBase  = 0x2200
	descBase = 0x6000
)

// testRegs is the register convention the test programs hand to emitters:
// r8 stays zero, r12 holds the thread slot, r10 the primitive base.
func testRegs() Regs {
	return Regs{Base: "r10", Me: "r12", Zero: "r8", T1: "r1", T2: "r2", T3: "r3", T4: "r4"}
}

// lockLoopProgram builds a program where each thread runs iters critical
// sections, each doing a deliberately non-atomic increment of cntAddr (so
// any mutual-exclusion violation loses counts).
func lockLoopProgram(l Lock, iters int) string {
	g := NewGen("lock")
	g.Label("entry")
	g.I("movi r9, %d", iters)
	loop, done := g.L("loop"), g.L("done")
	g.Label(loop)
	g.I("beq r9, r8, %s", done)
	l.EmitAcquire(g, testRegs())
	g.I("ld r5, [r11+0]")
	g.I("addi r5, r5, 1")
	g.I("st [r11+0], r5")
	l.EmitRelease(g, testRegs())
	g.I("addi r9, r9, -1")
	g.I("jmp %s", loop)
	g.Label(done)
	g.I("halt")
	return g.Source()
}

// bootThreads binds prog on ptids 0..n-1, wiring the register convention,
// and boot-starts them all.
func bootThreads(t *testing.T, m *machine.Machine, src string, n int) {
	t.Helper()
	prog := asm.MustAssemble("sync-test", src)
	c := m.Core(0)
	for i := 0; i < n; i++ {
		p := hwthread.PTID(i)
		if err := c.BindProgram(p, prog, "entry"); err != nil {
			t.Fatal(err)
		}
		ctx := c.Threads().Context(p)
		ctx.Regs.GPR[8] = 0
		ctx.Regs.GPR[10] = lockBase
		ctx.Regs.GPR[11] = cntAddr
		ctx.Regs.GPR[12] = int64(i)
	}
	for i := 0; i < n; i++ {
		if err := c.BootStart(hwthread.PTID(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func allHalted(m *machine.Machine, n int) bool {
	c := m.Core(0)
	for i := 0; i < n; i++ {
		if c.Threads().Context(hwthread.PTID(i)).State != hwthread.Disabled {
			return false
		}
	}
	return true
}

func TestLockMutualExclusion(t *testing.T) {
	const workers, iters = 4, 25
	for _, kind := range []Kind{TAS, TTAS, MCS, Mutex} {
		for _, flavor := range []Flavor{Nocs, Legacy} {
			t.Run(fmt.Sprintf("%v/%v", kind, flavor), func(t *testing.T) {
				l, err := NewLock(kind, flavor, false)
				if err != nil {
					t.Fatal(err)
				}
				m := machine.New(machine.WithThreads(workers), machine.WithSMTSlots(2))
				bootThreads(t, m, lockLoopProgram(l, iters), workers)
				m.RunUntil(5_000_000)
				if !allHalted(m, workers) {
					t.Fatalf("%v/%v: threads still live at deadline (deadlock?)", kind, flavor)
				}
				if got := m.Mem().Read(cntAddr); got != workers*iters {
					t.Fatalf("%v/%v: counter = %d, want %d (lost updates => broken exclusion)",
						kind, flavor, got, workers*iters)
				}
			})
		}
	}
}

// TestFutexMutexMutualExclusion covers the syscall-parking legacy mutex.
func TestFutexMutexMutualExclusion(t *testing.T) {
	const workers, iters = 4, 25
	m := machine.New(machine.WithThreads(workers), machine.WithSMTSlots(2))
	f := NewFutexService(m.Core(0))
	f.InstallLegacy(m.Core(0))
	l, err := NewLock(Mutex, Legacy, true)
	if err != nil {
		t.Fatal(err)
	}
	bootThreads(t, m, lockLoopProgram(l, iters), workers)
	m.RunUntil(20_000_000)
	if !allHalted(m, workers) {
		t.Fatal("threads still live at deadline (lost futex wake?)")
	}
	if got := m.Mem().Read(cntAddr); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	waits, wakes := f.waits, f.wakes
	if waits == 0 || wakes == 0 {
		t.Fatalf("futex never engaged: waits=%d wakes=%d (not contended?)", waits, wakes)
	}
}

// TestMCSHandoffIsFIFO staggers four arrivals at a held MCS lock and
// checks the grant order matches the arrival order: each thread logs its
// slot when it enters the critical section.
func TestMCSHandoffIsFIFO(t *testing.T) {
	for _, flavor := range []Flavor{Nocs, Legacy} {
		t.Run(flavor.String(), func(t *testing.T) {
			const workers = 4
			l := MCSLock{F: flavor}
			g := NewGen("fifo")
			g.Label("entry")
			// Stagger arrivals: thread i burns i*4000 cycles first — far
			// coarser than any pipeline interleaving, so arrival order is
			// guaranteed even with all threads booted together.
			g.I("movi r5, 4000")
			g.I("mul r9, r12, r5")
			warm, go_ := g.L("warm"), g.L("go")
			g.Label(warm)
			g.I("beq r9, r8, %s", go_)
			g.I("addi r9, r9, -1")
			g.I("jmp %s", warm)
			g.Label(go_)
			l.EmitAcquire(g, testRegs())
			// log[logIdx++] = me
			g.I("ld r5, [r13+0]")
			g.I("movi r6, 8")
			g.I("mul r6, r5, r6")
			g.I("add r6, r6, r14")
			g.I("st [r6+0], r12")
			g.I("addi r5, r5, 1")
			g.I("st [r13+0], r5")
			// Hold the lock long enough that later arrivals queue up.
			g.I("movi r9, 2000")
			hold, rel := g.L("hold"), g.L("rel")
			g.Label(hold)
			g.I("beq r9, r8, %s", rel)
			g.I("addi r9, r9, -1")
			g.I("jmp %s", hold)
			g.Label(rel)
			l.EmitRelease(g, testRegs())
			g.I("halt")

			m := machine.New(machine.WithThreads(workers), machine.WithSMTSlots(2))
			prog := asm.MustAssemble("mcs-fifo", g.Source())
			c := m.Core(0)
			for i := 0; i < workers; i++ {
				p := hwthread.PTID(i)
				if err := c.BindProgram(p, prog, "entry"); err != nil {
					t.Fatal(err)
				}
				ctx := c.Threads().Context(p)
				ctx.Regs.GPR[10] = lockBase
				ctx.Regs.GPR[12] = int64(i)
				ctx.Regs.GPR[13] = logIdx
				ctx.Regs.GPR[14] = logBase
			}
			for i := 0; i < workers; i++ {
				if err := c.BootStart(hwthread.PTID(i)); err != nil {
					t.Fatal(err)
				}
			}
			m.RunUntil(5_000_000)
			if !allHalted(m, workers) {
				t.Fatal("threads still live at deadline")
			}
			if got := m.Mem().Read(logIdx); got != workers {
				t.Fatalf("log has %d entries, want %d", got, workers)
			}
			for i := 0; i < workers; i++ {
				if got := m.Mem().Read(logBase + int64(8*i)); got != int64(i) {
					t.Fatalf("grant %d went to thread %d, want %d (handoff not FIFO)", i, got, i)
				}
			}
		})
	}
}

// TestCondVarSignal runs a consumer that waits for a condition and a
// producer that publishes data then signals, in every flavor.
func TestCondVarSignal(t *testing.T) {
	const condBase, dataAddr, outAddr = 0x1200, 0x2300, 0x2400
	for _, flavor := range []Flavor{Nocs, Legacy} {
		t.Run(flavor.String(), func(t *testing.T) {
			mu := ParkingMutex{F: flavor}
			cv := CondVar{F: flavor}
			r := testRegs()

			cons := NewGen("cons")
			cons.Label("entry")
			mu.EmitAcquire(cons, r)
			cons.I("mov r10, r13") // cond base
			cv.EmitSnapshot(cons, r)
			cons.I("mov r10, r15") // back to mutex base
			mu.EmitRelease(cons, r)
			cons.I("mov r10, r13")
			cv.EmitWaitChanged(cons, r)
			cons.I("mov r10, r15")
			mu.EmitAcquire(cons, r)
			cons.I("ld r5, [r14+0]") // read published data
			cons.I("st [r6+0], r5")  // r6 = out address
			mu.EmitRelease(cons, r)
			cons.I("halt")

			prod := NewGen("prod")
			prod.Label("entry")
			// Give the consumer time to park.
			prod.I("movi r9, 3000")
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

			m := machine.New(machine.WithThreads(2), machine.WithSMTSlots(2))
			c := m.Core(0)
			for i, src := range []string{cons.Source(), prod.Source()} {
				p := hwthread.PTID(i)
				prog := asm.MustAssemble(fmt.Sprintf("cond-%d", i), src)
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
				t.Fatal("threads still live at deadline (missed signal?)")
			}
			if got := m.Mem().Read(outAddr); got != 77 {
				t.Fatalf("consumer read %d, want 77", got)
			}
		})
	}
}

// TestBarrierRounds runs workers through several barrier rounds; after
// each crossing every thread observes its neighbor's round counter, which
// the barrier guarantees has reached the current round.
func TestBarrierRounds(t *testing.T) {
	const workers, rounds = 4, 5
	const cBase, lBase = 0x2500, 0x2600
	for _, flavor := range []Flavor{Nocs, Legacy} {
		t.Run(flavor.String(), func(t *testing.T) {
			b := SyncBarrier{F: flavor}
			g := NewGen("bar")
			g.Label("entry")
			g.I("movi r9, %d", rounds)
			g.I("movi r7, 0") // round index
			loop, done := g.L("round"), g.L("done")
			g.Label(loop)
			g.I("beq r9, r8, %s", done)
			// counters[me]++
			g.I("movi r1, 8")
			g.I("mul r5, r12, r1")
			g.I("add r5, r5, r13")
			g.I("ld r6, [r5+0]")
			g.I("addi r6, r6, 1")
			g.I("st [r5+0], r6")
			b.EmitArrive(g, testRegs(), workers)
			// log[round*workers+me] = counters[neighbor]
			g.I("movi r1, 8")
			g.I("mul r5, r14, r1")
			g.I("add r5, r5, r13")
			g.I("ld r6, [r5+0]")
			g.I("movi r1, %d", workers)
			g.I("mul r5, r7, r1")
			g.I("add r5, r5, r12")
			g.I("movi r1, 8")
			g.I("mul r5, r5, r1")
			g.I("add r5, r5, r15")
			g.I("st [r5+0], r6")
			g.I("addi r7, r7, 1")
			g.I("addi r9, r9, -1")
			g.I("jmp %s", loop)
			g.Label(done)
			g.I("halt")

			m := machine.New(machine.WithThreads(workers), machine.WithSMTSlots(2))
			prog := asm.MustAssemble("barrier", g.Source())
			c := m.Core(0)
			for i := 0; i < workers; i++ {
				p := hwthread.PTID(i)
				if err := c.BindProgram(p, prog, "entry"); err != nil {
					t.Fatal(err)
				}
				ctx := c.Threads().Context(p)
				ctx.Regs.GPR[10] = lockBase
				ctx.Regs.GPR[12] = int64(i)
				ctx.Regs.GPR[13] = cBase
				ctx.Regs.GPR[14] = int64((i + 1) % workers)
				ctx.Regs.GPR[15] = lBase
			}
			for i := 0; i < workers; i++ {
				if err := c.BootStart(hwthread.PTID(i)); err != nil {
					t.Fatal(err)
				}
			}
			m.RunUntil(5_000_000)
			if !allHalted(m, workers) {
				t.Fatal("threads still live at deadline (barrier stuck?)")
			}
			for round := 0; round < rounds; round++ {
				for i := 0; i < workers; i++ {
					got := m.Mem().Read(lBase + int64(8*(round*workers+i)))
					if got < int64(round+1) {
						t.Fatalf("round %d: thread %d saw neighbor at %d, want >= %d (barrier leaked)",
							round, i, got, round+1)
					}
				}
			}
		})
	}
}

// TestFutexDescriptorPark exercises the nocs-flavor futex: the waiter
// parks through an exception-less SYSCALL, the waker's FAA + wake syscall
// releases it — no context switch anywhere on the path.
func TestFutexDescriptorPark(t *testing.T) {
	const fBase, outAddr = 0x1300, 0x2700
	// Threads 0,1 are users; the kernel's syscall service takes the top ptid.
	m := machine.New(machine.WithThreads(4), machine.WithSMTSlots(2))
	c := m.Core(0)
	k := kernel.NewNocs(c)
	f := NewFutexService(c)
	f.InstallNocs(k)
	users := []hwthread.PTID{0, 1}
	if _, err := k.ServeSyscalls(users, descBase); err != nil {
		t.Fatal(err)
	}

	// The waiter sleeps in the futex until [r10] stops reading its r4
	// snapshot; the waker bumps the word and wakes up to 8 waiters.
	waiter := NewGen("waiter")
	waiter.Label("entry")
	loop, done := waiter.L("fwait"), waiter.L("fdone")
	waiter.Label(loop)
	waiter.I("ld r1, [r10+0]")
	waiter.I("bne r1, r4, %s", done)
	waiter.I("mov r2, r10")
	waiter.I("mov r3, r4")
	waiter.I("movi r1, %d", SysFutexWait)
	waiter.I("syscall")
	waiter.I("jmp %s", loop)
	waiter.Label(done)
	waiter.I("ld r5, [r10+0]")
	waiter.I("st [r6+0], r5")
	waiter.I("halt")

	waker := NewGen("waker")
	waker.Label("entry")
	waker.I("movi r9, 3000")
	w, s := waker.L("warm"), waker.L("wake")
	waker.Label(w)
	waker.I("beq r9, r8, %s", s)
	waker.I("addi r9, r9, -1")
	waker.I("jmp %s", w)
	waker.Label(s)
	waker.I("movi r1, 1")
	waker.I("faa r2, [r10+0], r1")
	waker.I("mov r2, r10")
	waker.I("movi r3, 8")
	waker.I("movi r1, %d", SysFutexWake)
	waker.I("syscall")
	waker.I("halt")

	for i, src := range []string{waiter.Source(), waker.Source()} {
		p := hwthread.PTID(i)
		prog := asm.MustAssemble(fmt.Sprintf("futex-%d", i), src)
		if err := c.BindProgram(p, prog, "entry"); err != nil {
			t.Fatal(err)
		}
		ctx := c.Threads().Context(p)
		ctx.Regs.GPR[4] = 0 // expected value snapshot
		ctx.Regs.GPR[6] = outAddr
		ctx.Regs.GPR[10] = fBase
	}
	for i := 0; i < 2; i++ {
		if err := c.BootStart(hwthread.PTID(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.RunUntil(5_000_000)
	for i := 0; i < 2; i++ {
		if c.Threads().Context(hwthread.PTID(i)).State != hwthread.Disabled {
			t.Fatalf("user thread %d still live at deadline", i)
		}
	}
	if got := m.Mem().Read(outAddr); got != 1 {
		t.Fatalf("waiter observed futex word %d, want 1", got)
	}
	waits, wakes := f.waits, f.wakes
	if waits != 1 || wakes != 1 {
		t.Fatalf("futex stats waits=%d wakes=%d, want 1/1", waits, wakes)
	}
}
