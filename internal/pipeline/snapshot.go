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

// ErrThreadRecord reports a runnable-thread record no live pipeline writes:
// an id outside the core's threads or listed twice, or a weight below 1.
var ErrThreadRecord = errors.New("pipeline: invalid runnable-thread record")

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
// its order. threads is the owning core's hardware-thread count: every
// restored id must lie in [0, threads), so the id table never grows past it.
func (p *Pipeline) RestoreState(r *snapshot.R, threads int) error {
	slots := r.I64()
	if r.Err() == nil && int(slots) != p.slots {
		return fmt.Errorf("pipeline: snapshot has %d slots, live pipeline has %d", slots, p.slots)
	}
	clear(p.pos)
	p.threads = make([]thread, r.Len(32))
	p.totalWeight = 0
	for i := range p.threads {
		t := thread{id: int(r.I64()), weight: int(r.I64())}
		credits, issued := r.I64(), r.U64()
		switch {
		case r.Err() != nil:
			return r.Err()
		case t.id < 0 || t.id >= threads:
			return fmt.Errorf("%w: thread id %d, core has %d threads", ErrThreadRecord, t.id, threads)
		case p.posOf(t.id) >= 0:
			return fmt.Errorf("%w: thread %d listed twice", ErrThreadRecord, t.id)
		case t.weight < 1:
			return fmt.Errorf("%w: thread %d has weight %d", ErrThreadRecord, t.id, t.weight)
		case credits != 0 || issued != 0:
			return fmt.Errorf("%w: thread %d has credits %d, issued %d", ErrIssueState, t.id, credits, issued)
		}
		p.threads[i] = t
		p.setPos(t.id, i)
		p.totalWeight += t.weight
	}
	if cursor := r.I64(); cursor != 0 {
		return fmt.Errorf("%w: cursor %d", ErrIssueState, cursor)
	}
	// Invalidate every slowdown cache: each is recomputed deterministically
	// from the restored occupancy.
	p.epoch++
	return r.Err()
}
