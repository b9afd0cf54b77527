package device

import (
	"fmt"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). Each device serializes its counters
// plus every in-flight operation with the original (cycle, sequence) slot of
// its completion event, and re-creates those events on restore so delivery
// order — including fault-reordered deliveries — is byte-identical.
// Device geometry (configs, DMA ports, signals, MMIO windows) is machine
// wiring, re-created when the restore target is constructed.

// writeEvent records one live event's (at, seq) pair.
func writeEvent(w *snapshot.W, eng *sim.Shard, h sim.Handle, what string) error {
	at, seq, ok := eng.EventInfo(h)
	if !ok {
		return fmt.Errorf("device: %s event handle is stale at checkpoint", what)
	}
	w.I64(int64(at)).U64(seq)
	return nil
}

// SnapshotState writes the timer's tick state and in-flight MSI writes.
func (t *Timer) SnapshotState(w *snapshot.W) error {
	w.Bool(t.running).U64(t.ticks)
	w.Bool(t.ev != sim.NoEvent)
	if t.ev != sim.NoEvent {
		if err := writeEvent(w, t.eng, t.ev, "timer tick"); err != nil {
			return err
		}
	}
	w.Len(len(t.msis))
	for _, m := range t.msis {
		if err := writeEvent(w, t.eng, m.h, "timer msi"); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState replaces the timer's state, re-creating the periodic tick and
// any in-flight MSI writes at their original event slots.
func (t *Timer) RestoreState(r *snapshot.R) error {
	running, ticks := r.Bool(), r.U64()
	hasEv := r.Bool()
	var evAt sim.Cycles
	var evSeq uint64
	if hasEv {
		evAt, evSeq = sim.Cycles(r.I64()), r.U64()
	}
	n := r.Len(16)
	type slot struct {
		at  sim.Cycles
		seq uint64
	}
	msis := make([]slot, n)
	for i := range msis {
		msis[i] = slot{sim.Cycles(r.I64()), r.U64()}
	}
	if err := r.Err(); err != nil {
		return err
	}
	t.running = running
	t.ticks = ticks
	t.ev = sim.NoEvent
	if hasEv {
		t.ev = t.eng.AtSeq(evAt, evSeq, "timer", t)
	}
	t.msis = t.msis[:0]
	for _, s := range msis {
		m := &timerMSI{t: t}
		m.h = t.eng.AtSeq(s.at, s.seq, "fault-msi", m)
		t.msis = append(t.msis, m)
	}
	return nil
}

// LiveHandles lists the timer's queued events for the engine's claimed set.
func (t *Timer) LiveHandles() []sim.Handle {
	var hs []sim.Handle
	if t.ev != sim.NoEvent {
		hs = append(hs, t.ev)
	}
	for _, m := range t.msis {
		hs = append(hs, m.h)
	}
	return hs
}

// SnapshotState writes the NIC's ring cursors, counters, and in-flight RX/TX
// operations (RX payloads inline).
func (n *NIC) SnapshotState(w *snapshot.W) error {
	w.U64(n.delivered).U64(n.dropped)
	w.I64(n.txHead).I64(n.txTail).U64(n.transmitted)
	w.Len(len(n.rx))
	for _, rx := range n.rx {
		if err := writeEvent(w, n.eng, rx.h, "nic rx"); err != nil {
			return err
		}
		w.I64s(rx.payload)
	}
	w.Len(len(n.tx))
	for _, tx := range n.tx {
		if err := writeEvent(w, n.eng, tx.h, "nic tx"); err != nil {
			return err
		}
		w.I64(tx.slot).I64(tx.seq)
	}
	return nil
}

// RestoreState replaces the NIC's dynamic state, re-creating in-flight DMA
// at the original event slots.
func (n *NIC) RestoreState(r *snapshot.R) error {
	delivered, dropped := r.U64(), r.U64()
	txHead, txTail, transmitted := r.I64(), r.I64(), r.U64()
	nrx := r.Len(20)
	rxs := make([]*nicRX, nrx)
	type slot struct {
		at  sim.Cycles
		seq uint64
	}
	rxSlots := make([]slot, nrx)
	for i := 0; i < nrx; i++ {
		rxSlots[i] = slot{sim.Cycles(r.I64()), r.U64()}
		rxs[i] = &nicRX{n: n, payload: r.I64s()}
	}
	ntx := r.Len(32)
	txs := make([]*nicTX, ntx)
	txSlots := make([]slot, ntx)
	for i := 0; i < ntx; i++ {
		txSlots[i] = slot{sim.Cycles(r.I64()), r.U64()}
		txs[i] = &nicTX{n: n, slot: r.I64(), seq: r.I64()}
	}
	if err := r.Err(); err != nil {
		return err
	}
	n.delivered, n.dropped = delivered, dropped
	n.txHead, n.txTail, n.transmitted = txHead, txTail, transmitted
	n.rx = n.rx[:0]
	for i, rx := range rxs {
		rx.h = n.eng.AtSeq(rxSlots[i].at, rxSlots[i].seq, "nic-rx", rx)
		n.rx = append(n.rx, rx)
	}
	n.tx = n.tx[:0]
	for i, tx := range txs {
		tx.h = n.eng.AtSeq(txSlots[i].at, txSlots[i].seq, "nic-tx", tx)
		n.tx = append(n.tx, tx)
	}
	return nil
}

// LiveHandles lists the NIC's queued events for the engine's claimed set.
func (n *NIC) LiveHandles() []sim.Handle {
	var hs []sim.Handle
	for _, rx := range n.rx {
		hs = append(hs, rx.h)
	}
	for _, tx := range n.tx {
		hs = append(hs, tx.h)
	}
	return hs
}

// SnapshotState writes the SSD's queue cursors, counters, and in-flight
// completions.
func (s *SSD) SnapshotState(w *snapshot.W) error {
	w.I64(s.sqHead).I64(s.sqTail).U64(s.completed)
	w.Len(len(s.ops))
	for _, d := range s.ops {
		if err := writeEvent(w, s.eng, d.h, "ssd completion"); err != nil {
			return err
		}
		w.I64(d.op).I64(d.cid).I64(d.slot)
	}
	return nil
}

// RestoreState replaces the SSD's dynamic state, re-creating in-flight
// completions at the original event slots.
func (s *SSD) RestoreState(r *snapshot.R) error {
	sqHead, sqTail, completed := r.I64(), r.I64(), r.U64()
	n := r.Len(40)
	type slot struct {
		at  sim.Cycles
		seq uint64
	}
	slots := make([]slot, n)
	ops := make([]*ssdDone, n)
	for i := 0; i < n; i++ {
		slots[i] = slot{sim.Cycles(r.I64()), r.U64()}
		ops[i] = &ssdDone{s: s, op: r.I64(), cid: r.I64(), slot: r.I64()}
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.sqHead, s.sqTail, s.completed = sqHead, sqTail, completed
	s.inFlight = n
	s.ops = s.ops[:0]
	for i, d := range ops {
		d.h = s.eng.AtSeq(slots[i].at, slots[i].seq, "ssd-done", d)
		s.ops = append(s.ops, d)
	}
	return nil
}

// LiveHandles lists the SSD's queued events for the engine's claimed set.
func (s *SSD) LiveHandles() []sim.Handle {
	var hs []sim.Handle
	for _, d := range s.ops {
		hs = append(hs, d.h)
	}
	return hs
}
