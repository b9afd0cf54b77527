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
		if err := c.eng.WriteEvent(w, d.h, deliveryName(d.v, d.pend)); err != nil {
			return err
		}
		w.I64(int64(d.v)).Bool(d.pend)
	}

	w.U64(c.raised).U64(c.delivered).U64(c.spurious).U64(c.ipis)
	return nil
}

// RestoreState replaces the controller's dynamic state with the
// checkpoint's. core resolves a stable core id back to the live core; every
// pending vector must be registered in the target's IDT.
func (c *Controller) RestoreState(r *snapshot.R, core func(int64) (CoreTarget, error)) error {
	nb := r.Len(24)
	c.busyUntil = make(map[victimKey]sim.Cycles, nb)
	for range nb {
		id, victim, until := r.I64(), hwthread.PTID(r.I64()), sim.Cycles(r.I64())
		if r.Err() != nil {
			return r.Err()
		}
		ct, err := core(id)
		if err != nil {
			return err
		}
		c.busyUntil[victimKey{core: ct, victim: victim}] = until
	}
	c.pending = c.pending[:0]
	for range r.Len(25) {
		d := &delivery{c: c}
		h := c.eng.ReadEvent(r, "irq", d)
		d.v, d.pend = Vector(r.I64()), r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		e, ok := c.idt[d.v]
		if !ok {
			return fmt.Errorf("irq: snapshot has a pending delivery of vector %d, which is not registered in the restore target", d.v)
		}
		c.eng.Rename(h, deliveryName(d.v, d.pend))
		d.e, d.key, d.h = e, victimKey{core: e.core, victim: e.victim}, h
		c.pending = append(c.pending, d)
	}
	c.raised, c.delivered, c.spurious, c.ipis = r.U64(), r.U64(), r.U64(), r.U64()
	return r.Err()
}

// deliveryName names a pending delivery's event: irqN, or irqN-pend for one
// deferred behind its victim's busy horizon.
func deliveryName(v Vector, pend bool) string {
	if pend {
		return fmt.Sprintf("irq%d-pend", v)
	}
	return fmt.Sprintf("irq%d", v)
}
