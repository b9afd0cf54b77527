package sim

import (
	"cmp"
	"fmt"
	"slices"

	"nocs/internal/snapshot"
)

// This file is the engine- and scheduler-level checkpoint surface
// (DESIGN.md §13). The event heap holds Go closures and callback objects,
// which cannot be serialized, so every live event must be written by the
// component that scheduled it, and one rule decides who that is: an event
// belongs to the codec that writes its record, and it is written exactly
// once.
//
//   - A checkpoint pass starts with BeginSnapshot, which empties the claim
//     set, so a pass that failed part-way leaves nothing behind.
//   - A codec writes an event's (at, seq) from Claim, which also records
//     that the pass owns the event. A codec that schedules pooled bodies
//     without retaining handles (the queueing servers' completions, quantum
//     slices and arrival streams) claims them by callback with ClaimLive.
//     At restore time the owner re-creates each event with AtSeq, pinning
//     the original (timestamp, sequence) pair so same-cycle tie-breaking is
//     byte-identical.
//   - The engine owns cancelled-but-unpopped events. A cancelled entry's
//     only observable effects are advancing the clock when popped and
//     bounding BatchHorizon while queued; Tombstone reproduces both
//     without needing the (long gone) owner.
//   - SnapshotEvents, called after every codec has written, writes the
//     engine section. A live event no codec claimed, or that two codecs
//     claimed, is a checkpoint error naming the event, not a silent drop or
//     a duplicate at restore. This is the format's documented boundary:
//     driver-scheduled closures (bench harness glue) are not
//     checkpointable, machine-owned state is.

// EventRec is one tombstone of an engine section: a cancelled event still
// queued at checkpoint time.
type EventRec struct {
	At   Cycles
	Seq  uint64
	Name string
}

// EngineState is a decoded engine section: the clock, the sequence and ran
// counters, and the tombstones in (timestamp, sequence) order.
type EngineState struct {
	Now        Cycles
	Seq, Ran   uint64
	Tombstones []EventRec
}

// BeginSnapshot starts a checkpoint pass with an empty claim set.
func (e *Engine) BeginSnapshot() { clear(e.claims) }

// Claim returns the timestamp and sequence number of a live queued event and
// records that this checkpoint pass owns it: the caller writes the event's
// record and re-creates it on restore. ok=false for stale, invalid or
// cancelled handles.
func (e *Engine) Claim(h Handle) (at Cycles, seq uint64, ok bool) {
	s := e.slotOf(h)
	if s < 0 || !e.slots[s].queued || e.slots[s].cancelled {
		return 0, 0, false
	}
	for _, en := range e.heap {
		if en.slot == s {
			e.claim(s)
			return en.at, en.seq, true
		}
	}
	return 0, 0, false
}

func (e *Engine) claim(s int32) {
	if e.claims == nil {
		e.claims = make(map[int32]int)
	}
	e.claims[s]++
}

// LiveEvent is one queued event claimed by its callback.
type LiveEvent struct {
	At  Cycles
	Seq uint64
	CB  Callback
}

// ClaimLive claims every live queued event whose callback body owns
// reports as its own, and returns them in (timestamp, sequence) order. It is
// the claim for components that schedule pooled bodies without retaining
// handles: the owner recognizes its own payloads among the live events
// instead of paying per-event handle bookkeeping on the hot path.
func (e *Engine) ClaimLive(owns func(cb Callback) bool) []LiveEvent {
	var ents []heapEntry
	for _, en := range e.heap {
		sl := &e.slots[en.slot]
		if !sl.cancelled && sl.cb != nil && owns(sl.cb) {
			e.claim(en.slot)
			ents = append(ents, en)
		}
	}
	slices.SortFunc(ents, compareEntries)
	out := make([]LiveEvent, len(ents))
	for i, en := range ents {
		out[i] = LiveEvent{At: en.at, Seq: en.seq, CB: e.slots[en.slot].cb}
	}
	return out
}

func compareEntries(a, b heapEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// SnapshotEvents writes the engine section: the clock, the counters, and
// every cancelled queued event as a tombstone, sorted by timestamp then
// sequence. It ends the checkpoint pass BeginSnapshot started: every live
// queued event must have been claimed by exactly one codec, and one that
// none or several claimed makes the state non-checkpointable and yields an
// error naming the event.
func (e *Engine) SnapshotEvents(w *snapshot.W) error {
	var tombs []heapEntry
	for _, en := range e.heap {
		sl := &e.slots[en.slot]
		switch n := e.claims[en.slot]; {
		case sl.cancelled:
			tombs = append(tombs, en)
		case n == 0:
			return fmt.Errorf("sim: pending event %q at cycle %d has no checkpointable owner", sl.name, en.at)
		case n > 1:
			return fmt.Errorf("sim: pending event %q at cycle %d is written by %d codecs", sl.name, en.at, n)
		}
	}
	slices.SortFunc(tombs, compareEntries)
	w.I64(int64(e.clock.Now())).U64(e.seq).U64(e.ran)
	w.Len(len(tombs))
	for _, t := range tombs {
		w.I64(int64(t.at)).U64(t.seq).String(e.slots[t.slot].name)
	}
	return nil
}

// ReadEngineState decodes an engine section written by SnapshotEvents.
func ReadEngineState(r *snapshot.R) (EngineState, error) {
	st := EngineState{Now: Cycles(r.I64()), Seq: r.U64(), Ran: r.U64()}
	st.Tombstones = make([]EventRec, r.Len(17))
	for i := range st.Tombstones {
		st.Tombstones[i] = EventRec{At: Cycles(r.I64()), Seq: r.U64(), Name: r.String()}
	}
	return st, r.Err()
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

// FinishRestore re-creates st's tombstones and sets the sequence and ran
// counters to its values, after every component has restored its events
// (AtSeq/ClaimSeq). st.Seq must be at least one past every restored sequence
// number, or future events could collide with restored ones and break the
// total order.
func (e *Engine) FinishRestore(st EngineState) error {
	for _, t := range st.Tombstones {
		e.Tombstone(t.At, t.Seq, t.Name)
	}
	if st.Seq < e.seq {
		return fmt.Errorf("sim: restored seq counter %d collides with a queued event (need >= %d)", st.Seq, e.seq)
	}
	e.seq = st.Seq
	e.ran = st.Ran
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
