package sim

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the engine- and scheduler-level checkpoint surface
// (DESIGN.md §13). The event heap holds Go closures and callback objects,
// which cannot be serialized; the checkpoint protocol therefore splits
// responsibility:
//
//   - Components OWN their pending events. Every component that schedules
//     an event and needs it to survive a checkpoint keeps its Handle plus a
//     serializable payload, and at restore time re-creates the event with
//     AtSeq, pinning the original (timestamp, sequence) pair so
//     same-cycle tie-breaking is byte-identical.
//   - The engine owns cancelled-but-unpopped events. A cancelled entry's
//     only observable effects are advancing the clock when popped and
//     bounding BatchHorizon while queued; Tombstone reproduces both
//     without needing the (long gone) owner.
//   - A live event that no component claims is a checkpoint error, not a
//     silent drop: SnapshotEvents names it. This is the format's documented
//     boundary — driver-scheduled closures (bench harness glue) are not
//     checkpointable, machine-owned state is.

// EventRec describes one queued event for checkpointing.
type EventRec struct {
	At        Cycles
	Seq       uint64
	Name      string
	Cancelled bool
}

// EventInfo returns the timestamp and sequence number of a still-queued
// event, for components recording their claimed events in a checkpoint.
// ok=false for stale or invalid handles.
func (e *Engine) EventInfo(h Handle) (at Cycles, seq uint64, ok bool) {
	s := e.slotOf(h)
	if s < 0 || !e.slots[s].queued {
		return 0, 0, false
	}
	for _, en := range e.heap {
		if en.slot == s {
			return en.at, en.seq, true
		}
	}
	return 0, 0, false
}

// VisitLiveEvents calls visit for every live (non-cancelled) queued event in
// deterministic (timestamp, sequence) order. cb is the event's callback body,
// or nil for closure events. This is the reclamation path for components that
// schedule pooled event bodies without retaining handles (the queueing
// servers' completion and quantum-slice events): at checkpoint time the owner
// recognizes its own payload types among the live events instead of tracking
// a handle per event on the hot path.
func (e *Engine) VisitLiveEvents(visit func(at Cycles, seq uint64, name string, cb Callback)) {
	ents := append([]heapEntry(nil), e.heap...)
	sort.Slice(ents, func(i, j int) bool { return entryLess(ents[i], ents[j]) })
	for _, en := range ents {
		sl := &e.slots[en.slot]
		if sl.cancelled {
			continue
		}
		visit(en.at, en.seq, sl.name, sl.cb)
	}
}

// SnapshotEvents exports the engine's counters and every cancelled queued
// event (as tombstones, sorted by timestamp then sequence). claimed must
// contain the sequence number of every live queued event whose owner will
// re-create it on restore; a live event that is not claimed makes the state
// non-checkpointable and yields an error naming the event.
func (e *Engine) SnapshotEvents(claimed map[uint64]bool) (now Cycles, seq, ran uint64, tombstones []EventRec, err error) {
	for _, en := range e.heap {
		sl := &e.slots[en.slot]
		if sl.cancelled {
			tombstones = append(tombstones, EventRec{At: en.at, Seq: en.seq, Name: sl.name, Cancelled: true})
			continue
		}
		if !claimed[en.seq] {
			return 0, 0, 0, nil, fmt.Errorf(
				"sim: pending event %q at cycle %d has no checkpointable owner", sl.name, en.at)
		}
	}
	sort.Slice(tombstones, func(i, j int) bool {
		if tombstones[i].At != tombstones[j].At {
			return tombstones[i].At < tombstones[j].At
		}
		return tombstones[i].Seq < tombstones[j].Seq
	})
	return e.clock.Now(), e.seq, e.ran, tombstones, nil
}

// BeginRestore discards every queued event, resets the counters, and moves
// the clock to now (which may rewind it: a restored checkpoint replaces the
// timeline wholesale). Handles issued before BeginRestore are invalid
// afterwards; components restoring their state receive fresh ones.
func (e *Engine) BeginRestore(now Cycles) {
	e.heap = e.heap[:0]
	e.slots = e.slots[:0]
	e.free = e.free[:0]
	e.seq = 0
	e.ran = 0
	e.deadline, e.deadlineActive = 0, false
	e.clock.now = now
}

// Tombstone queues a cancelled event at (at, seq). When popped it advances
// the clock and is discarded without running or counting toward Ran —
// exactly the observable behavior of an event that was queued and then
// Cancelled, including its effect on BatchHorizon while queued. Checkpoint
// restore uses it to re-create a snapshot's tombstones; a component that
// keeps events outside the heap (the core's ready queue, dispatched through
// RunInline) uses it when it cancels one, so the heap holds the tombstone
// the queued event would have left. Live events are restored with AtSeq.
func (e *Engine) Tombstone(at Cycles, seq uint64, name string) {
	e.schedule(at, seq, name, nil, nil, true)
}

// ClaimSeq records that an event its owner keeps outside the heap (the
// core's ready queue) holds seq, as queueing it would have: the counter moves
// past seq, so FinishRestore rejects a restored counter that collides with
// it.
func (e *Engine) ClaimSeq(seq uint64) {
	if seq >= e.seq {
		e.seq = seq + 1
	}
}

// FinishRestore sets the sequence and ran counters to the checkpoint's
// values, after every AtSeq/Tombstone/ClaimSeq call. seq must be at
// least one past every restored sequence number, or future events could
// collide with restored ones and break the total order.
func (e *Engine) FinishRestore(seq, ran uint64) error {
	if seq < e.seq {
		return fmt.Errorf("sim: restored seq counter %d collides with a queued event (need >= %d)", seq, e.seq)
	}
	e.seq = seq
	e.ran = ran
	return nil
}

// XMsgRec describes one in-flight cross-shard message for checkpointing.
// The callback is returned live so the machine layer can map it to a
// serializable payload (and re-create it on restore).
type XMsgRec struct {
	At   Cycles
	Src  ShardID
	Seq  uint64
	To   ShardID
	Name string
	CB   Callback
}

// SchedulerSnapshotter is the optional checkpoint surface of a Scheduler.
// Both SerialScheduler and ShardedScheduler implement it (via the shared
// windowed protocol); a machine type-asserts for it at checkpoint time.
type SchedulerSnapshotter interface {
	SnapshotXMsgs() []XMsgRec
	SendSeqs() []uint64
	RestoreXMsg(m XMsgRec)
	SetSendSeqs(seqs []uint64) error
	ClearXMsgs()
}

// SnapshotXMsgs collects every staged outbox message into the in-flight set
// (the same normalization runWindows performs on entry, so it does not
// change behavior) and returns the in-flight messages sorted in the
// deterministic delivery order.
func (w *windowed) SnapshotXMsgs() []XMsgRec {
	w.collect()
	out := make([]XMsgRec, 0, len(w.inflight))
	for _, m := range w.inflight {
		out = append(out, XMsgRec{At: m.at, Src: m.src, Seq: m.seq, To: m.to, Name: m.name, CB: m.cb})
	}
	slices.SortFunc(out, func(a, b XMsgRec) int {
		return xmsgCompare(xmsg{at: a.At, src: a.Src, seq: a.Seq}, xmsg{at: b.At, src: b.Src, seq: b.Seq})
	})
	return out
}

// SendSeqs returns a copy of the per-shard cross-shard send counters.
func (w *windowed) SendSeqs() []uint64 { return append([]uint64(nil), w.sendSeq...) }

// ClearXMsgs discards all staged and in-flight cross-shard messages, in
// preparation for restoring a checkpoint's message population.
func (w *windowed) ClearXMsgs() {
	w.inflight = w.inflight[:0]
	for s := range w.outbox {
		w.outbox[s] = w.outbox[s][:0]
	}
}

// RestoreXMsg re-stages one in-flight message with its original identity
// triple, so delivery order after restore is byte-identical.
func (w *windowed) RestoreXMsg(m XMsgRec) {
	w.inflight = append(w.inflight, xmsg{at: m.At, src: m.Src, seq: m.Seq, to: m.To, name: m.Name, cb: m.CB})
}

// SetSendSeqs restores the per-shard send counters.
func (w *windowed) SetSendSeqs(seqs []uint64) error {
	if len(seqs) != len(w.sendSeq) {
		return fmt.Errorf("sim: restored %d send counters for %d shards", len(seqs), len(w.sendSeq))
	}
	copy(w.sendSeq, seqs)
	return nil
}

// State returns the RNG's current cursor, for checkpointing a workload or
// fault-injection stream mid-run.
func (r *RNG) State() uint64 { return r.state }

// SetState restores an RNG cursor captured by State.
func (r *RNG) SetState(s uint64) { r.state = s }

var (
	_ SchedulerSnapshotter = (*SerialScheduler)(nil)
	_ SchedulerSnapshotter = (*ShardedScheduler)(nil)
)
