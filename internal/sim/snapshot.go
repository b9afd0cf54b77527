package sim

import (
	"cmp"
	"errors"
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
//   - A codec writes an event's record with WriteEvent, which takes its
//     (at, seq) from Claim and so records that the pass owns the event. A
//     codec that schedules pooled bodies without retaining handles (the
//     queueing servers' completions, quantum slices and arrival streams)
//     claims them by callback with ClaimLive. At restore time the owner
//     re-creates each event with ReadEvent, pinning the original
//     (timestamp, sequence) pair so same-cycle tie-breaking is
//     byte-identical.
//   - The engine owns cancelled-but-unpopped events. A cancelled entry's
//     only observable effects are advancing the clock when popped and
//     bounding BatchHorizon while queued; Tombstone reproduces both
//     without needing the (long gone) owner.
//   - The scheduler's codec (SnapshotState) writes the writes queued on
//     the engines, so they are checkpointable on any shard layout.
//   - SnapshotEvents, called after every codec has written, writes the
//     engine section. A live event no codec claimed, or that two codecs
//     claimed, is a checkpoint error naming the event, not a silent drop or
//     a duplicate at restore. This is the format's documented boundary:
//     driver-scheduled closures (bench harness glue) are not
//     checkpointable, machine-owned state is.

// ErrEventRecord reports an event record no live engine could have written:
// one timed before the restored clock.
var ErrEventRecord = errors.New("sim: event record before the restored clock")

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

// WriteEvent writes the record of the live event h, its (at, seq) key, and
// claims the event for this checkpoint pass. A stale, invalid or cancelled
// handle is an error naming the event.
func (e *Engine) WriteEvent(w *snapshot.W, h Handle, name string) error {
	at, seq, ok := e.Claim(h)
	if !ok {
		return fmt.Errorf("sim: %s event handle is stale at checkpoint", name)
	}
	w.I64(int64(at)).U64(seq)
	return nil
}

// ReadEvent reads a record written by WriteEvent (or any (at, seq) key
// written as I64, U64) and re-creates the event at that key with cb as its
// body. The engine must be mid-restore. It returns NoEvent, re-creating
// nothing, when the read fails or when the record is timed before the
// restored clock; the latter fails r with ErrEventRecord.
func (e *Engine) ReadEvent(r *snapshot.R, name string, cb Callback) Handle {
	at, seq := Cycles(r.I64()), r.U64()
	if r.Err() != nil {
		return NoEvent
	}
	if at < e.clock.Now() {
		r.Fail(fmt.Errorf("%w: %q at cycle %d, clock %d", ErrEventRecord, name, at, e.clock.Now()))
		return NoEvent
	}
	return e.schedule(at, seq, name, nil, cb, false)
}

// Rename renames a queued event, for a restore that learns an event's name
// only from fields its record holds after the (at, seq) key.
func (e *Engine) Rename(h Handle, name string) {
	if s := e.slotOf(h); s >= 0 {
		e.slots[s].name = name
	}
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

// ReadEngineState decodes an engine section written by SnapshotEvents. A
// tombstone timed before the section's clock is an ErrEventRecord.
func ReadEngineState(r *snapshot.R) (EngineState, error) {
	st := EngineState{Now: Cycles(r.I64()), Seq: r.U64(), Ran: r.U64()}
	st.Tombstones = make([]EventRec, r.Len(17))
	for i := range st.Tombstones {
		t := EventRec{At: Cycles(r.I64()), Seq: r.U64(), Name: r.String()}
		if r.Err() == nil && t.At < st.Now {
			r.Fail(fmt.Errorf("%w: tombstone %q at cycle %d, clock %d", ErrEventRecord, t.Name, t.At, st.Now))
		}
		st.Tombstones[i] = t
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
// the queued event would have left. Live events are restored with
// ReadEvent.
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
// (ReadEvent/ClaimSeq). st.Seq must be at least one past every restored sequence
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

// SnapshotState writes the xmsgs section: the per-shard send counters, then
// one (at, src, seq, to, addr, val) record per write not yet stored, in
// (at, src, seq) order. A write in flight between shards keeps its delivery
// identity; a write queued on its target's engine is written with src == to
// under its engine (at, seq) and claimed, so this runs before the engines'
// SnapshotEvents. A cross-shard record never has src == to. Collecting the
// outboxes first is the normalization every run starts with.
func (w *Scheduler) SnapshotState(sw *snapshot.W) error {
	w.collect()
	recs := slices.Clone(w.inflight)
	for _, sh := range w.shards {
		for _, ev := range sh.ClaimLive(isWrite) {
			x := ev.CB.(*write)
			recs = append(recs, xmsg{at: ev.At, src: sh.id, seq: ev.Seq, to: sh.id, addr: x.addr, val: x.val})
		}
	}
	slices.SortFunc(recs, xmsgCompare)
	sw.Len(len(w.sendSeq))
	for _, q := range w.sendSeq {
		sw.U64(q)
	}
	sw.Len(len(recs))
	for _, m := range recs {
		sw.I64(int64(m.at)).I64(int64(m.src)).U64(m.seq).I64(int64(m.to)).I64(m.addr).I64(m.val)
	}
	return nil
}

func isWrite(cb Callback) bool { _, ok := cb.(*write); return ok }

// RestoreState reads the xmsgs section back, re-creating each queued write
// at its engine (at, seq). The engines must be mid-restore, so FinishRestore
// refuses a seq counter that collides with one. A record naming an unknown
// shard, or timed before its target's clock (ErrEventRecord), is refused.
func (w *Scheduler) RestoreState(r *snapshot.R) error {
	n := r.Len(8)
	if r.Err() == nil && n != len(w.sendSeq) {
		return fmt.Errorf("sim: restored %d send counters for %d shards", n, len(w.sendSeq))
	}
	for i := range n {
		w.sendSeq[i] = r.U64()
	}
	w.inflight = w.inflight[:0]
	for s := range w.outbox {
		w.outbox[s] = w.outbox[s][:0]
	}
	for range r.Len(42) {
		m := xmsg{at: Cycles(r.I64()), src: ShardID(r.I64()), seq: r.U64(), to: ShardID(r.I64()), addr: r.I64(), val: r.I64()}
		if err := r.Err(); err != nil {
			return err
		}
		to := w.Shard(m.to)
		if to == nil || w.Shard(m.src) == nil {
			return fmt.Errorf("sim: write record from shard %d to shard %d, have %d shards", m.src, m.to, len(w.shards))
		}
		if now := to.Now(); m.at < now {
			return fmt.Errorf("%w: write at cycle %d, shard %d clock %d", ErrEventRecord, m.at, m.to, now)
		}
		if m.src == m.to {
			x := to.free.Get()
			*x = write{sh: to, addr: m.addr, val: m.val}
			to.schedule(m.at, m.seq, writeName, nil, x, false)
		} else {
			w.inflight = append(w.inflight, m)
		}
	}
	return r.Err()
}

// State returns the RNG's current cursor, for checkpointing a workload or
// fault-injection stream mid-run.
func (r *RNG) State() uint64 { return r.state }

// SetState restores an RNG cursor captured by State.
func (r *RNG) SetState(s uint64) { r.state = s }
