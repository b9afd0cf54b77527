package device

import "nocs/internal/snapshot"

// Checkpoint support (DESIGN.md §13). Each device serializes its counters
// plus every in-flight operation with the original (cycle, sequence) slot of
// its completion event, and re-creates those events on restore so delivery
// order — including fault-reordered deliveries — is byte-identical.
// Device geometry (configs, DMA ports, signals, MMIO windows) is machine
// wiring, re-created when the restore target is constructed.

// SnapshotState writes the NIC's ring cursors, counters, and in-flight RX/TX
// operations (RX payloads inline).
func (n *NIC) SnapshotState(w *snapshot.W) error {
	w.U64(n.delivered).U64(n.dropped)
	w.I64(n.txHead).I64(n.txTail).U64(n.transmitted)
	w.Len(len(n.rx))
	for _, rx := range n.rx {
		if err := n.eng.WriteEvent(w, rx.h, "nic-rx"); err != nil {
			return err
		}
		w.I64s(rx.payload)
	}
	w.Len(len(n.tx))
	for _, tx := range n.tx {
		if err := n.eng.WriteEvent(w, tx.h, "nic-tx"); err != nil {
			return err
		}
		w.I64(tx.slot).I64(tx.seq)
	}
	return nil
}

// RestoreState replaces the NIC's dynamic state, re-creating in-flight DMA
// at the original event slots.
func (n *NIC) RestoreState(r *snapshot.R) error {
	n.delivered, n.dropped = r.U64(), r.U64()
	n.txHead, n.txTail, n.transmitted = r.I64(), r.I64(), r.U64()
	for _, rx := range n.rx {
		n.rxFree.Put(rx)
	}
	n.rx = n.rx[:0]
	for range r.Len(20) {
		rx := n.rxFree.Get()
		rx.n = n
		rx.h = n.eng.ReadEvent(r, "nic-rx", rx)
		rx.payload = append(rx.payload[:0], r.I64s()...)
		n.rx = append(n.rx, rx)
	}
	for _, tx := range n.tx {
		n.txFree.Put(tx)
	}
	n.tx = n.tx[:0]
	for range r.Len(32) {
		tx := n.txFree.Get()
		tx.n = n
		tx.h = n.eng.ReadEvent(r, "nic-tx", tx)
		tx.slot, tx.seq = r.I64(), r.I64()
		n.tx = append(n.tx, tx)
	}
	return r.Err()
}

// SnapshotState writes the SSD's queue cursors, counters, and in-flight
// completions.
func (s *SSD) SnapshotState(w *snapshot.W) error {
	w.I64(s.sqHead).I64(s.sqTail).U64(s.completed)
	w.Len(len(s.ops))
	for _, d := range s.ops {
		if err := s.eng.WriteEvent(w, d.h, "ssd-done"); err != nil {
			return err
		}
		w.I64(d.op).I64(d.cid).I64(d.slot)
	}
	return nil
}

// RestoreState replaces the SSD's dynamic state, re-creating in-flight
// completions at the original event slots.
func (s *SSD) RestoreState(r *snapshot.R) error {
	s.sqHead, s.sqTail, s.completed = r.I64(), r.I64(), r.U64()
	s.ops = s.ops[:0]
	for range r.Len(40) {
		d := &ssdDone{s: s}
		d.h = s.eng.ReadEvent(r, "ssd-done", d)
		d.op, d.cid, d.slot = r.I64(), r.I64(), r.I64()
		s.ops = append(s.ops, d)
	}
	s.inFlight = len(s.ops)
	return r.Err()
}
