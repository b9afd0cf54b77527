package faultinject

import (
	"errors"

	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). The injector's only dynamic state is
// its RNG cursor and the per-class counters; the plan itself is machine
// configuration, re-created when the restore target is constructed. Both
// methods are nil-receiver safe so the machine layer can checkpoint
// unconditionally: a nil injector writes a "disabled" marker and refuses to
// restore an enabled snapshot (and vice versa) with ErrPlanMismatch — a plan
// mismatch would silently change the fault schedule.

// ErrPlanMismatch reports a fault section whose plan on/off does not match
// the live injector's: restore the checkpoint into a target armed with the
// same fault plan.
var ErrPlanMismatch = errors.New("faultinject: snapshot fault plan on/off does not match the live injector")

// SnapshotState writes the injector's RNG cursor and fault counters. It
// cannot fail: the injector owns no events.
func (i *Injector) SnapshotState(w *snapshot.W) error {
	if i == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	w.U64(i.rng.State())
	w.U64(i.stats.DMADelayed).U64(i.stats.DMADropped)
	w.U64(i.stats.SpuriousWakes).U64(i.stats.CoalescedWakes)
	w.U64(i.stats.TransferErrors).U64(i.stats.RequestFaults)
	return nil
}

// RestoreState replaces the injector's RNG cursor and counters with the
// checkpoint's. Restoring an enabled snapshot into a nil (faults-off)
// injector, or a disabled one into a live injector, is ErrPlanMismatch.
func (i *Injector) RestoreState(r *snapshot.R) error {
	enabled := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if enabled != (i != nil) {
		return ErrPlanMismatch
	}
	if i == nil {
		return nil
	}
	i.rng.SetState(r.U64())
	i.stats.DMADelayed, i.stats.DMADropped = r.U64(), r.U64()
	i.stats.SpuriousWakes, i.stats.CoalescedWakes = r.U64(), r.U64()
	i.stats.TransferErrors, i.stats.RequestFaults = r.U64(), r.U64()
	return r.Err()
}
