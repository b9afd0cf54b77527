package sync

// CondVar is a condition variable over a sequence word at [Base+0].
// Waiters snapshot the sequence while holding the associated mutex,
// release the mutex, and block until the sequence moves; Signal bumps the
// sequence with a FAA whose store is also the Nocs wakeup. The sequence
// protocol makes the missed-signal race structurally impossible as long
// as signals happen while the snapshot is still current — the property
// the differential sweep's missed-signal bias hammers on.
type CondVar struct{ F Flavor }

// EmitSnapshot captures the current sequence into T4. Call while holding
// the mutex that guards the condition.
func (c CondVar) EmitSnapshot(g *Gen, r Regs) {
	g.I("ld %s, [%s+0]", r.T4, r.Base)
}

// EmitWaitChanged blocks until the sequence differs from the T4 snapshot.
// Call after releasing the mutex; reacquire it afterwards. The wait loop
// re-arms the monitor before every re-check (a wake consumes the watch
// set), so injected spurious wakes can cost a lap but never a signal.
func (c CondVar) EmitWaitChanged(g *Gen, r Regs) {
	g.waitWhileEq(c.F, r.Base, r.T4, r.T1)
}

// EmitSignal advances the sequence, waking every parked waiter (monitor
// wakeups have no selectivity).
func (c CondVar) EmitSignal(g *Gen, r Regs) {
	g.I("movi %s, 1", r.T1)
	g.I("faa %s, [%s+0], %s", r.T2, r.Base, r.T1)
}

// SyncBarrier is an n-thread generation barrier: an arrival counter at
// [Base+0] and a generation word at [Base+8]. The last arriver resets the
// counter and bumps the generation; everyone else waits for the
// generation to move (convoy formation in miniature — all waiters release
// at once).
type SyncBarrier struct{ F Flavor }

// EmitArrive emits one arrive-and-wait for an n-thread barrier.
func (b SyncBarrier) EmitArrive(g *Gen, r Regs, n int) {
	wait := g.L("bwait")
	done := g.L("bdone")
	g.I("addi %s, %s, 8", r.T3, r.Base) // &generation
	g.I("ld %s, [%s+0]", r.T4, r.T3)    // generation snapshot
	g.I("movi %s, 1", r.T1)
	g.I("faa %s, [%s+0], %s", r.T2, r.Base, r.T1)
	g.I("addi %s, %s, 1", r.T2, r.T2)
	g.I("movi %s, %d", r.T1, n)
	g.I("bne %s, %s, %s", r.T2, r.T1, wait)
	// Last arriver: reset the counter, then release the generation.
	g.I("st [%s+0], %s", r.Base, r.Zero)
	g.I("movi %s, 1", r.T1)
	g.I("faa %s, [%s+0], %s", r.T2, r.T3, r.T1)
	g.I("jmp %s", done)
	g.Label(wait)
	g.waitWhileEq(b.F, r.T3, r.T4, r.T1) // while generation unchanged
	g.Label(done)
}
