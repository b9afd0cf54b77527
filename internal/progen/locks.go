package progen

import (
	"fmt"

	"nocs/internal/asm"
	nsync "nocs/internal/sync"
)

// Lock-program generation: when Bias.Locks is set, Generate emits a
// contention program over one internal/sync primitive instead of the
// role-based soup. Each thread runs the same acquire/critical-section/
// release (or wait/signal, or barrier-round) skeleton with seeded
// per-thread stagger and hold times, biased toward the interleavings where
// lock implementations historically break:
//
//   - handoff races: arrivals staggered so releases land exactly as the
//     next waiter is between its monitor arm and mwait;
//   - convoy formation: one thread holds long critical sections while the
//     rest pile up and release together;
//   - missed signals: cond-var signals timed into the window between a
//     waiter's sequence snapshot and its wait.
//
// Only the pure-ISA flavors are generated (spin or monitor/mwait parking,
// no kernel futex service), so the reference interpreter needs no new
// machinery: the primitives compile to loads, stores, branches, the atomic
// RMW ops, and monitor/mwait — all diffed cycle-exactly.
//
// Register conventions for lock programs (distinct from the soup's):
//
//	r8          always zero
//	r9          outer loop counter
//	r10         primitive base (flag window — waiters monitor these words)
//	r11         DataBase (shared counter + per-thread logs)
//	r12         thread slot ("me", feeds the MCS qnode index)
//	r1..r4      primitive scratch (sync.Regs T1..T4)
//	r2, r5..r7  skeleton scratch between primitive calls
const (
	// lockCounterOff is the shared non-atomic counter every critical
	// section increments; lost updates make exclusion bugs architecturally
	// visible in the compared data window.
	lockCounterOff = 0
	// lockLogOff is the start of the per-thread log slots.
	lockLogOff = 8
)

// LockBias selects the lock-program family: the configuration of the
// lock-ordering differential sweep. SpuriousWakes rides along (drawn last,
// after the program bytes are fixed) so injected false wakeups hit parked
// lock waiters too.
func LockBias() Bias {
	return Bias{
		Locks:            1,
		LockHandoffRace:  0.6,
		LockConvoy:       0.35,
		LockMissedSignal: 0.6,
		SpuriousWakes:    0.5,
	}
}

func lockRegs() nsync.Regs {
	return nsync.Regs{Base: "r10", Me: "r12", Zero: "r8", T1: "r1", T2: "r2", T3: "r3", T4: "r4"}
}

// generateLocks is the Bias.Locks generation path. It draws from the same
// seeded RNG stream as the soup path but shares no draws with it: the
// Locks gate at the top of Generate is the only branch point.
func (g *gen) generateLocks(seed uint64) (*Spec, error) {
	kinds := [...]nsync.Kind{nsync.TAS, nsync.TTAS, nsync.MCS, nsync.Mutex, nsync.Cond, nsync.Barrier}
	kind := kinds[g.rng.Intn(len(kinds))]
	flavor := nsync.Nocs
	if g.chance(0.5) {
		flavor = nsync.Legacy
	}

	// 2..6 threads: MCS needs 1+2n flag-window words, so n stays ≤ 7.
	g.threads = 2 + g.rng.Intn(5)
	s := &Spec{
		Seed:     seed,
		Threads:  g.threads,
		Slots:    1 + g.rng.Intn(4),
		Deadline: 25000 + int64(g.rng.Intn(25000)),
		Lock:     fmt.Sprintf("%v/%v", kind, flavor),
	}

	switch kind {
	case nsync.Cond:
		g.emitCondProgram(flavor)
	case nsync.Barrier:
		g.emitBarrierProgram(flavor)
	default:
		lock, err := nsync.NewLock(kind, flavor, false)
		if err != nil {
			return nil, fmt.Errorf("progen: seed %d: %w", seed, err)
		}
		g.emitLockProgram(lock)
	}

	// Lock programs boot every thread (a barrier with an unbooted member
	// would just deadlock), in shuffled order: boot order fixes the
	// engine's first-instruction tie-break, so it is part of the test case.
	boot := make([]int, g.threads)
	for p := range boot {
		boot[p] = p
	}
	for i := len(boot) - 1; i > 0; i-- {
		j := g.rng.Intn(i + 1)
		boot[i], boot[j] = boot[j], boot[i]
	}
	s.Boot = boot

	// Fault events are drawn LAST (after all program bytes) so a zero
	// SpuriousWakes generates the byte-identical program for the seed.
	// Every thread is a candidate: nocs-flavor threads park in mwait, and
	// an injection aimed at a running thread is a no-op on both sides.
	if g.chance(g.b.SpuriousWakes) {
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			s.Faults = append(s.Faults, FaultEv{
				At:   int64(g.rng.Intn(int(s.Deadline))),
				PTID: g.rng.Intn(g.threads),
			})
		}
	}
	return g.finishLocks(s)
}

// finishLocks assembles the accumulated source into the spec.
func (g *gen) finishLocks(s *Spec) (*Spec, error) {
	s.Source = g.src.String()
	prog, err := asm.Assemble(fmt.Sprintf("gen-lock-%d", s.Seed), s.Source)
	if err != nil {
		return nil, fmt.Errorf("progen: seed %d produced invalid assembly: %w", s.Seed, err)
	}
	s.Prog = prog
	return s, nil
}

// lockPreamble emits thread p's entry label and the register conventions,
// plus a seeded warmup delay: the stagger that steers arrival order into
// handoff-race windows.
func (g *gen) lockPreamble(sg *nsync.Gen, p int, stagger int) {
	if p == 0 {
		sg.Raw("main:") // alias so plain `nocsasm` runs the file too
	}
	sg.Raw(fmt.Sprintf("t%d:", p))
	sg.I("movi r10, %d", FlagBase)
	sg.I("movi r11, %d", DataBase)
	sg.I("movi r12, %d", p)
	if stagger > 0 {
		warm, entered := sg.L("warm"), sg.L("entered")
		sg.I("movi r9, %d", stagger)
		sg.Label(warm)
		sg.I("beq r9, r8, %s", entered)
		sg.I("addi r9, r9, -1")
		sg.I("jmp %s", warm)
		sg.Label(entered)
	}
}

// delayLoop burns roughly n cycles in a scratch register.
func delayLoop(sg *nsync.Gen, reg string, n int) {
	if n <= 0 {
		return
	}
	spin, out := sg.L("hold"), sg.L("held")
	sg.I("movi %s, %d", reg, n)
	sg.Label(spin)
	sg.I("beq %s, r8, %s", reg, out)
	sg.I("addi %s, %s, -1", reg, reg)
	sg.I("jmp %s", spin)
	sg.Label(out)
}

// emitLockProgram: every thread loops acquire / increment / release. The
// shared counter increment is deliberately non-atomic (ld/addi/st), so any
// mutual-exclusion failure surfaces as a lost count in the compared data
// window — and any handoff-order difference as divergent per-thread logs.
func (g *gen) emitLockProgram(lock nsync.Lock) {
	r := lockRegs()
	iters := 1 + g.rng.Intn(4)
	convoy := g.chance(g.b.LockConvoy)
	race := g.chance(g.b.LockHandoffRace)
	for p := 0; p < g.threads; p++ {
		sg := nsync.NewGen(fmt.Sprintf("t%d", p))
		stagger := 0
		if race {
			// Spread arrivals across a few hundred cycles so releases keep
			// landing mid-arrival of the next waiter.
			stagger = g.rng.Intn(150) * p
		}
		g.lockPreamble(sg, p, stagger)
		hold := g.rng.Intn(20)
		if convoy && p == 0 {
			hold = 80 + g.rng.Intn(150) // the convoy-forming long holder
		}
		loop, done := sg.L("loop"), sg.L("done")
		sg.I("movi r9, %d", iters)
		sg.Label(loop)
		sg.I("beq r9, r8, %s", done)
		lock.EmitAcquire(sg, r)
		sg.I("ld r5, [r11+%d]", lockCounterOff)
		sg.I("addi r5, r5, 1")
		delayLoop(sg, "r2", hold)
		sg.I("st [r11+%d], r5", lockCounterOff)
		// Per-thread acquisition log: slot p counts this thread's grants.
		sg.I("ld r5, [r11+%d]", lockLogOff+8*p)
		sg.I("addi r5, r5, 1")
		sg.I("st [r11+%d], r5", lockLogOff+8*p)
		lock.EmitRelease(sg, r)
		sg.I("addi r9, r9, -1")
		sg.I("jmp %s", loop)
		sg.Label(done)
		sg.I("halt")
		g.src.WriteString(sg.Source())
	}
}

// emitCondProgram: thread 0 publishes a value and bumps the cond-var
// sequence; the rest snapshot the sequence and wait for it to move. The
// missed-signal bias stretches the window between a waiter's snapshot and
// its wait while the signaler fires early — exactly the monitor-before-
// mwait race the pending-wakeup buffer must win.
func (g *gen) emitCondProgram(flavor nsync.Flavor) {
	r := lockRegs()
	cv := nsync.CondVar{F: flavor}
	missed := g.chance(g.b.LockMissedSignal)
	for p := 0; p < g.threads; p++ {
		sg := nsync.NewGen(fmt.Sprintf("t%d", p))
		g.lockPreamble(sg, p, 0)
		if p == 0 {
			// Signaler: publish, then advance the sequence (the FAA store
			// doubles as the nocs wakeup).
			lead := 200 + g.rng.Intn(400)
			if missed {
				lead = g.rng.Intn(120) // fire into the snapshot/wait window
			}
			delayLoop(sg, "r9", lead)
			sg.I("movi r5, %d", 1+g.rng.Intn(99))
			sg.I("st [r11+%d], r5", lockLogOff)
			cv.EmitSignal(sg, r)
		} else {
			cv.EmitSnapshot(sg, r)
			if missed {
				delayLoop(sg, "r9", g.rng.Intn(200))
			}
			cv.EmitWaitChanged(sg, r)
			// Record the published value this waiter observed.
			sg.I("ld r5, [r11+%d]", lockLogOff)
			sg.I("st [r11+%d], r5", lockLogOff+8*p)
		}
		sg.I("halt")
		g.src.WriteString(sg.Source())
	}
}

// emitBarrierProgram: every thread runs R rounds of bump-own-counter /
// arrive / observe-neighbor. The barrier releases all waiters off one
// generation store — convoy formation in miniature — and the observation
// log makes any barrier leak (a thread crossing before the last arrival)
// architecturally visible.
func (g *gen) emitBarrierProgram(flavor nsync.Flavor) {
	r := lockRegs()
	b := nsync.SyncBarrier{F: flavor}
	rounds := 2 + g.rng.Intn(3)
	race := g.chance(g.b.LockHandoffRace)
	for p := 0; p < g.threads; p++ {
		sg := nsync.NewGen(fmt.Sprintf("t%d", p))
		stagger := 0
		if race {
			stagger = g.rng.Intn(120) * p
		}
		g.lockPreamble(sg, p, stagger)
		own := lockLogOff + 8*p
		neighbor := lockLogOff + 8*((p+1)%g.threads)
		obs := lockLogOff + 8*(g.threads+p)
		loop, done := sg.L("round"), sg.L("done")
		sg.I("movi r9, %d", rounds)
		sg.Label(loop)
		sg.I("beq r9, r8, %s", done)
		sg.I("ld r5, [r11+%d]", own)
		sg.I("addi r5, r5, 1")
		sg.I("st [r11+%d], r5", own)
		b.EmitArrive(sg, r, g.threads)
		sg.I("ld r5, [r11+%d]", neighbor)
		sg.I("st [r11+%d], r5", obs)
		sg.I("addi r9, r9, -1")
		sg.I("jmp %s", loop)
		sg.Label(done)
		sg.I("halt")
		g.src.WriteString(sg.Source())
	}
}
