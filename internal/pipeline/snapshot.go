package pipeline

import (
	"errors"
	"fmt"

	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). The runnable set round-trips in
// insertion order with its weights. The cached slowdowns are pure functions
// of the occupancy and are deliberately NOT serialized: restore bumps the
// epoch so every cache recomputes, which yields bit-identical values.
//
// The section format still carries three fields of a retired round-robin
// issue model (per-thread deficit credits and issue count, and a scan
// cursor). They are written as zeros — the values that model always held in
// a live machine — so NOCSNAP1 bytes are unchanged, and a checkpoint with
// any of them non-zero is refused with ErrIssueState.

// ErrIssueState reports a pipeline section whose retired round-robin issue
// fields are not zero.
var ErrIssueState = errors.New("pipeline: snapshot carries round-robin issue state")

// SnapshotState writes the slot count and the runnable set in order.
func (p *Pipeline) SnapshotState(w *snapshot.W) {
	w.I64(int64(p.slots))
	w.Len(len(p.threads))
	for i := range p.threads {
		t := &p.threads[i]
		w.I64(int64(t.id)).I64(int64(t.weight)).I64(0).U64(0) // credits, issued
	}
	w.I64(0) // cursor
}

// RestoreState replaces the runnable set with the checkpoint's, preserving
// its order.
func (p *Pipeline) RestoreState(r *snapshot.R) error {
	slots := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(slots) != p.slots {
		return fmt.Errorf("pipeline: snapshot has %d slots, live pipeline has %d", slots, p.slots)
	}
	n := r.Len(32)
	threads := make([]thread, n)
	total := 0
	for i := 0; i < n; i++ {
		threads[i] = thread{id: int(r.I64()), weight: int(r.I64())}
		if credits, issued := r.I64(), r.U64(); credits != 0 || issued != 0 {
			return fmt.Errorf("%w: thread %d has credits %d, issued %d", ErrIssueState, threads[i].id, credits, issued)
		}
		total += threads[i].weight
	}
	cursor := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if cursor != 0 {
		return fmt.Errorf("%w: cursor %d", ErrIssueState, cursor)
	}
	for i := range p.pos {
		p.pos[i] = 0
	}
	p.threads = threads
	for i := range threads {
		p.setPos(threads[i].id, i)
	}
	p.totalWeight = total
	// Invalidate every slowdown cache: each is recomputed deterministically
	// from the restored occupancy.
	p.epoch++
	return nil
}
