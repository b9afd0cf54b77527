package irq

import (
	"fmt"
	"sort"

	"nocs/internal/hwthread"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). The controller round-trips its
// counters, the per-victim busy horizons (core identities translated through
// the machine's stable core ids), and every raised-but-undelivered interrupt
// with its original event slot. The IDT itself is wiring: handlers are Go
// functions registered by the driver, so the restore target must register
// the same vectors before Restore, and a pending delivery is re-bound to the
// target's IDT entry by vector. In-flight IPIs carry arbitrary receiver
// closures and are NOT checkpointable — the engine's unclaimed-event check
// reports them by name ("ipi").

// SnapshotState writes the controller's dynamic state. coreID translates a
// live core to its stable checkpoint id.
func (c *Controller) SnapshotState(w *snapshot.W, coreID func(CoreTarget) (int64, bool)) error {
	now := c.eng.Now()
	type busyRec struct {
		core   int64
		victim int64
		until  int64
	}
	var busy []busyRec
	for k, bu := range c.busyUntil {
		if bu <= now {
			continue // expired horizons are behaviorally absent
		}
		id, ok := coreID(k.core)
		if !ok {
			return fmt.Errorf("irq: busy victim on unknown core %T", k.core)
		}
		busy = append(busy, busyRec{id, int64(k.victim), int64(bu)})
	}
	sort.Slice(busy, func(i, j int) bool {
		if busy[i].core != busy[j].core {
			return busy[i].core < busy[j].core
		}
		return busy[i].victim < busy[j].victim
	})
	w.Len(len(busy))
	for _, b := range busy {
		w.I64(b.core).I64(b.victim).I64(b.until)
	}

	w.Len(len(c.pending))
	for _, d := range c.pending {
		at, seq, ok := c.eng.EventInfo(d.h)
		if !ok {
			return fmt.Errorf("irq: pending delivery of vector %d has a stale event handle", d.v)
		}
		w.I64(int64(at)).U64(seq).I64(int64(d.v)).Bool(d.pend)
	}

	w.U64(c.raised).U64(c.delivered).U64(c.spurious).U64(c.ipis)
	return nil
}

// RestoreState replaces the controller's dynamic state with the
// checkpoint's. core resolves a stable core id back to the live core; every
// pending vector must be registered in the target's IDT.
func (c *Controller) RestoreState(r *snapshot.R, core func(int64) (CoreTarget, error)) error {
	nb := r.Len(24)
	type busyRec struct {
		core   int64
		victim int64
		until  int64
	}
	busy := make([]busyRec, nb)
	for i := range busy {
		busy[i] = busyRec{r.I64(), r.I64(), r.I64()}
	}
	np := r.Len(25)
	type pendRec struct {
		at   sim.Cycles
		seq  uint64
		v    Vector
		pend bool
	}
	pend := make([]pendRec, np)
	for i := range pend {
		pend[i] = pendRec{sim.Cycles(r.I64()), r.U64(), Vector(r.I64()), r.Bool()}
	}
	raised, delivered, spurious, ipis := r.U64(), r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	busyUntil := make(map[victimKey]sim.Cycles, nb)
	for _, b := range busy {
		ct, err := core(b.core)
		if err != nil {
			return err
		}
		busyUntil[victimKey{core: ct, victim: hwthread.PTID(b.victim)}] = sim.Cycles(b.until)
	}

	c.busyUntil = busyUntil
	c.pending = c.pending[:0]
	for _, p := range pend {
		e, ok := c.idt[p.v]
		if !ok {
			return fmt.Errorf("irq: snapshot has a pending delivery of vector %d, which is not registered in the restore target", p.v)
		}
		name := fmt.Sprintf("irq%d", p.v)
		if p.pend {
			name = fmt.Sprintf("irq%d-pend", p.v)
		}
		d := &delivery{
			c: c, v: p.v, e: e, pend: p.pend,
			key: victimKey{core: e.core, victim: e.victim},
		}
		d.h = c.eng.AtSeq(p.at, p.seq, name, d)
		c.pending = append(c.pending, d)
	}
	c.raised, c.delivered, c.spurious, c.ipis = raised, delivered, spurious, ipis
	return nil
}

// LiveHandles lists the controller's queued events for the engine's claimed
// set. In-flight IPIs are deliberately absent: they are not checkpointable.
func (c *Controller) LiveHandles() []sim.Handle {
	var hs []sim.Handle
	for _, d := range c.pending {
		hs = append(hs, d.h)
	}
	return hs
}
