package sync

// SpinLock is the TAS (and, with TestFirst, TTAS) lock: one word at
// [Base+0], 0 free / 1 held. The Legacy flavor spins; the Nocs flavor
// parks the hardware thread on the lock word between attempts, so the
// release store is also the wakeup.
type SpinLock struct {
	TestFirst bool // TTAS: read the word before attempting the XCHG
	F         Flavor
}

func (l SpinLock) EmitAcquire(g *Gen, r Regs) {
	try := g.L("try")
	done := g.L("locked")
	g.Label(try)
	if l.TestFirst {
		// Test loop: wait until the word reads free before the RMW.
		test := g.L("test")
		grab := g.L("grab")
		g.Label(test)
		if l.F == Nocs {
			g.I("monitor %s", r.Base)
		}
		g.I("ld %s, [%s+0]", r.T1, r.Base)
		g.I("beq %s, %s, %s", r.T1, r.Zero, grab)
		if l.F == Nocs {
			g.I("mwait")
		}
		g.I("jmp %s", test)
		g.Label(grab)
	}
	g.I("movi %s, 1", r.T1)
	g.I("xchg %s, [%s+0]", r.T1, r.Base)
	g.I("beq %s, %s, %s", r.T1, r.Zero, done)
	if !l.TestFirst && l.F == Nocs {
		// Failed grab left the held value (1) in T1: park until it changes.
		g.waitWhileEq(Nocs, r.Base, r.T1, r.T2)
	}
	g.I("jmp %s", try)
	g.Label(done)
}

func (l SpinLock) EmitRelease(g *Gen, r Regs) {
	g.I("st [%s+0], %s", r.Base, r.Zero)
}

// MCSLock is the MCS queue lock: FIFO handoff, each waiter spins (Legacy)
// or parks (Nocs) on its own qnode flag, so handoff is a single store to
// the successor's flag. Layout at Base:
//
//	+0:            tail (0 = unlocked; i+1 = thread i is last in queue)
//	+8  + 16*i:    qnode i flag  (1 = wait, 0 = lock granted)
//	+16 + 16*i:    qnode i next  (0 = none; j+1 = thread j follows)
type MCSLock struct{ F Flavor }

// qnode leaves Base + 16*Me (the address 8 below qnode Me's flag) in dst.
func (l MCSLock) qnode(g *Gen, r Regs, dst string) {
	g.I("movi %s, 16", dst)
	g.I("mul %s, %s, %s", dst, r.Me, dst)
	g.I("add %s, %s, %s", dst, dst, r.Base)
}

func (l MCSLock) EmitAcquire(g *Gen, r Regs) {
	done := g.L("locked")
	l.qnode(g, r, r.T3)
	g.I("movi %s, 1", r.T1)
	g.I("st [%s+8], %s", r.T3, r.T1)    // flag = wait
	g.I("st [%s+16], %s", r.T3, r.Zero) // next = none
	g.I("addi %s, %s, 1", r.T2, r.Me)
	g.I("xchg %s, [%s+0]", r.T2, r.Base) // T2 = predecessor ticket
	g.I("beq %s, %s, %s", r.T2, r.Zero, done)
	// Link: predecessor's next = my ticket, then wait on my own flag.
	g.I("addi %s, %s, -1", r.T2, r.T2)
	g.I("movi %s, 16", r.T1)
	g.I("mul %s, %s, %s", r.T1, r.T2, r.T1)
	g.I("add %s, %s, %s", r.T1, r.T1, r.Base)
	g.I("addi %s, %s, 1", r.T2, r.Me)
	g.I("st [%s+16], %s", r.T1, r.T2)
	g.I("addi %s, %s, 8", r.T1, r.T3) // &flag
	g.I("movi %s, 1", r.T2)
	g.waitWhileEq(l.F, r.T1, r.T2, r.T4) // while flag == 1
	g.Label(done)
}

func (l MCSLock) EmitRelease(g *Gen, r Regs) {
	done := g.L("released")
	hand := g.L("handoff")
	l.qnode(g, r, r.T3)
	g.I("ld %s, [%s+16]", r.T1, r.T3) // successor ticket
	g.I("bne %s, %s, %s", r.T1, r.Zero, hand)
	// No visible successor: try to swing tail back to unlocked.
	g.I("addi %s, %s, 1", r.T2, r.Me)
	g.I("cas %s, [%s+0], %s", r.T2, r.Base, r.Zero)
	g.I("addi %s, %s, 1", r.T1, r.Me)
	g.I("beq %s, %s, %s", r.T2, r.T1, done) // CAS took: queue empty
	// A successor is mid-link: wait for our next pointer to appear.
	g.I("addi %s, %s, 16", r.T1, r.T3)
	g.waitWhileEq(l.F, r.T1, r.Zero, r.T2) // while next == 0
	g.I("mov %s, %s", r.T1, r.T2)          // observed successor ticket
	g.Label(hand)
	// T1 = successor ticket: clear its flag (the store is the wakeup).
	g.I("addi %s, %s, -1", r.T1, r.T1)
	g.I("movi %s, 16", r.T2)
	g.I("mul %s, %s, %s", r.T1, r.T1, r.T2)
	g.I("add %s, %s, %s", r.T1, r.T1, r.Base)
	g.I("st [%s+8], %s", r.T1, r.Zero)
	g.Label(done)
}

// ParkingMutex is the futex-style mutex: one word at [Base+0], 0 free /
// 1 held / 2 held-with-waiters. Without UseFutex the Nocs flavor parks
// via monitor/mwait directly on the word and the Legacy flavor spins
// (the pure-ISA forms used by the differential sweeps). With UseFutex
// both flavors park in the kernel — Nocs through the exception-less
// descriptor syscalls, Legacy through the trap-model natives — which is
// the kernel-path cell the contention benchmarks compare.
type ParkingMutex struct {
	F        Flavor
	UseFutex bool
}

func (l ParkingMutex) EmitAcquire(g *Gen, r Regs) {
	done := g.L("locked")
	slow := g.L("slow")
	g.I("mov %s, %s", r.T1, r.Zero)
	g.I("movi %s, 1", r.T2)
	g.I("cas %s, [%s+0], %s", r.T1, r.Base, r.T2) // 0 -> 1 fast path
	g.I("beq %s, %s, %s", r.T1, r.Zero, done)
	g.Label(slow)
	g.I("movi %s, 2", r.T2)
	g.I("xchg %s, [%s+0]", r.T2, r.Base) // mark contended
	g.I("beq %s, %s, %s", r.T2, r.Zero, done)
	if l.UseFutex {
		// Kernel-park until the word stops reading 2.
		g.I("mov r2, %s", r.Base)
		g.I("movi r3, 2")
		if l.F == Nocs {
			g.I("movi r1, %d", SysFutexWait)
			g.I("syscall")
		} else {
			g.I("native %s", NativeFutexWait)
		}
	} else {
		g.I("movi %s, 2", r.T1)
		g.waitWhileEq(l.F, r.Base, r.T1, r.T2) // while word == 2
	}
	g.I("jmp %s", slow)
	g.Label(done)
}

func (l ParkingMutex) EmitRelease(g *Gen, r Regs) {
	if !l.UseFutex {
		// The store both frees the lock and wakes Nocs parkers.
		g.I("st [%s+0], %s", r.Base, r.Zero)
		return
	}
	done := g.L("released")
	g.I("movi %s, 0", r.T1)
	g.I("xchg %s, [%s+0]", r.T1, r.Base)
	g.I("movi %s, 2", r.T2)
	g.I("bne %s, %s, %s", r.T1, r.T2, done) // no waiters recorded
	g.I("mov r2, %s", r.Base)
	g.I("movi r3, 1")
	if l.F == Nocs {
		g.I("movi r1, %d", SysFutexWake)
		g.I("syscall")
	} else {
		g.I("native %s", NativeFutexWake)
	}
	g.Label(done)
}
