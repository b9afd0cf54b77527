package sim

import (
	"fmt"
	"math"

	"nocs/internal/trace"
)

// Handle identifies a scheduled event. The zero Handle is invalid (never
// returned by the engine), so a Handle field can be reset with plain
// assignment to 0. Handles are generation-checked: once the event has run or
// been discarded, the handle goes stale and Cancel/Cancelled on it are
// harmless no-ops — a recycled slot can never be cancelled through an old
// handle.
type Handle uint64

// NoEvent is the invalid zero Handle.
const NoEvent Handle = 0

// Callback is an allocation-free event body. Long-lived objects (a core's
// per-ptid exec state, a timer, a queueing server) implement OnEvent once and
// are rescheduled again and again without creating a closure per event; this
// is what keeps the steady-state scheduling path at zero allocations.
type Callback interface {
	OnEvent()
}

// eventSlot is one arena entry. Slots are recycled through a freelist; gen
// increments on every release so stale Handles cannot reach a reused slot.
type eventSlot struct {
	fn        func()
	cb        Callback
	name      string
	gen       uint32
	queued    bool
	cancelled bool
}

// heapEntry is one priority-queue element. The sort key (At, Seq) is stored
// inline so heap comparisons never chase into the arena.
type heapEntry struct {
	at   Cycles
	seq  uint64
	slot int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event loop bound to a Clock.
// It is not safe for concurrent use: the whole simulation is single-threaded
// by design so that identical inputs give identical cycle-exact outputs
// (virtual time cannot be perturbed by host scheduling or GC pauses).
//
// Events live in a freelist-backed arena and are addressed by Handle; the
// ready queue is a 4-ary implicit heap of (time, seq) keys. Equal timestamps
// run in scheduling (FIFO) order, which makes runs bit-for-bit reproducible.
type Engine struct {
	clock *Clock
	heap  []heapEntry
	slots []eventSlot
	free  []int32
	seq   uint64
	ran   uint64

	// tr, when non-nil, records an instant per dispatched event on trTrack.
	// Nil (the default) costs one pointer compare per dispatch and nothing
	// else — the zero-allocation guarantee is guard-tested.
	tr      *trace.Tracer
	trTrack trace.TrackID

	// deadline/deadlineActive mirror the innermost RunUntil in progress, so
	// components that advance virtual time inline (the core's batched
	// execution loop) never run past the point the driver asked to stop at.
	deadline       Cycles
	deadlineActive bool

	// ranLimit/ranLimitActive mirror the innermost Run(limit) in progress:
	// RunInline refuses once Ran reaches ranLimit, so a bounded run stops
	// after limit dispatches, inline ones included.
	ranLimit       uint64
	ranLimitActive bool

	// claims counts, per arena slot, the codecs that claimed the queued
	// event in the checkpoint pass in progress (snapshot.go). Only
	// checkpointing writes it.
	claims map[int32]int
}

// NewEngine creates an engine driving the given clock.
func NewEngine(clock *Clock) *Engine {
	if clock == nil {
		clock = NewClock()
	}
	return &Engine{clock: clock}
}

// SetTracer attaches a tracer; every dispatched event then emits an instant
// named after the event onto the given track. Only this engine's event loop
// writes to it, so each shard of a sharded machine needs its own buffer
// (trace.Tracer.Fork). Pass nil to disable.
func (e *Engine) SetTracer(tr *trace.Tracer, track trace.TrackID) {
	e.tr = tr
	e.trTrack = track
}

// Clock returns the engine's clock.
func (e *Engine) Clock() *Clock { return e.clock }

// Now returns the current simulated time.
func (e *Engine) Now() Cycles { return e.clock.Now() }

// Pending returns the number of events still queued (including cancelled
// ones that have not yet been popped).
func (e *Engine) Pending() int { return len(e.heap) }

// Ran returns the number of events executed so far.
func (e *Engine) Ran() uint64 { return e.ran }

// NextEventAt returns the timestamp of the earliest queued event, or ok=false
// when the queue is empty. Cancelled-but-unpopped events count: they still
// occupy the heap, and treating them as a horizon only ends a batch early,
// which is always safe.
func (e *Engine) NextEventAt() (Cycles, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// BatchHorizon returns the latest timestamp an inline-advancing component may
// reach without reordering anything: one cycle before the earliest queued
// event, capped at the active RunUntil deadline. With an empty queue and no
// deadline it returns the maximum Cycles value. The result is invalidated by
// any scheduling activity — callers may cache it only across steps that
// provably schedule nothing (the core's fast ALU loop).
func (e *Engine) BatchHorizon() Cycles {
	h := Cycles(math.MaxInt64)
	if len(e.heap) > 0 {
		h = e.heap[0].at - 1
	}
	if e.deadlineActive && e.deadline < h {
		h = e.deadline
	}
	return h
}

// AdvanceWithin advances the clock to t and returns true iff doing so cannot
// reorder any queued event or overrun an active RunUntil deadline: it fails
// (leaving the clock untouched) when an event is queued at or before t, or
// when t lies beyond the deadline of a RunUntil in progress. This is the
// scheduling-horizon check for batched execution: a component may keep
// running inline exactly as long as every step stays strictly ahead of the
// event queue, because the step it is about to take would otherwise have been
// the last-scheduled event at time t (ties at t must yield to queued events,
// which carry earlier sequence numbers).
func (e *Engine) AdvanceWithin(t Cycles) bool {
	if len(e.heap) > 0 && e.heap[0].at <= t {
		return false
	}
	if e.deadlineActive && t > e.deadline {
		return false
	}
	e.clock.AdvanceTo(t)
	return true
}

// alloc takes a slot from the freelist, growing the arena when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, eventSlot{gen: 1})
	return int32(len(e.slots) - 1)
}

// release clears a slot, bumps its generation, and returns it to the
// freelist. Clearing fn/cb drops any closure references immediately.
func (e *Engine) release(s int32) {
	sl := &e.slots[s]
	sl.fn = nil
	sl.cb = nil
	sl.name = ""
	sl.queued = false
	sl.cancelled = false
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1
	}
	e.free = append(e.free, s)
}

func handleOf(slot int32, gen uint32) Handle {
	return Handle(uint64(uint32(slot+1)) | uint64(gen)<<32)
}

// slotOf resolves a Handle to its arena index, or -1 when the handle is
// invalid or stale (the event already ran or was discarded).
func (e *Engine) slotOf(h Handle) int32 {
	s := int32(uint32(h)) - 1
	if s < 0 || int(s) >= len(e.slots) {
		return -1
	}
	if e.slots[s].gen != uint32(h>>32) {
		return -1
	}
	return s
}

// push inserts an entry with hole-based sift-up (4-ary heap).
func (e *Engine) push(en heapEntry) {
	h := append(e.heap, en)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
	e.heap = h
}

// pop removes and returns the minimum entry.
func (e *Engine) pop() heapEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places en starting from the root (4-ary hole sift-down).
func (e *Engine) siftDown(en heapEntry) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], en) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}

// schedule is the one scheduling body: At, AtCallback, AtSeq, and the
// checkpoint restore of live events and tombstones all queue through it
// under an explicit (t, seq) key. A seq at or past the counter advances the
// counter beyond it, so the plain At path (seq == e.seq) is a post-increment
// and a restored event can never collide with a later one.
func (e *Engine) schedule(t Cycles, seq uint64, name string, fn func(), cb Callback, cancelled bool) Handle {
	if t < e.clock.Now() {
		panic(fmt.Sprintf("sim: event %q scheduled at %d, before now=%d", name, t, e.clock.Now()))
	}
	s := e.alloc()
	sl := &e.slots[s]
	sl.fn = fn
	sl.cb = cb
	sl.name = name
	sl.queued = true
	sl.cancelled = cancelled
	e.push(heapEntry{at: t, seq: seq, slot: s})
	if seq >= e.seq {
		e.seq = seq + 1
	}
	return handleOf(s, sl.gen)
}

// ReserveSeqs takes n consecutive sequence numbers off the engine's counter
// and returns the first. An event later queued with AtSeq under one of them
// sorts exactly where it would have if it had been scheduled at reservation
// time. A component with a long, pre-known event train (open-loop arrivals,
// periodic ticks) reserves the whole train's numbers up front and keeps only
// its next event in the heap: dispatch order, same-cycle tie-breaks,
// NextEventAt, BatchHorizon and Ran are those of the up-front schedule,
// while the heap stays small.
func (e *Engine) ReserveSeqs(n int) uint64 {
	base := e.seq
	e.seq += uint64(n)
	return base
}

// AtSeq schedules cb.OnEvent at absolute time t under an explicit sequence
// number taken by ReserveSeqs. Scheduling in the past panics; checkpoint
// restore re-creates events with ReadEvent, which rejects such a record
// with ErrEventRecord instead.
func (e *Engine) AtSeq(t Cycles, seq uint64, name string, cb Callback) Handle {
	return e.schedule(t, seq, name, nil, cb, false)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics.
func (e *Engine) At(t Cycles, name string, fn func()) Handle {
	return e.schedule(t, e.seq, name, fn, nil, false)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, name string, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled %d cycles in the past", name, d))
	}
	return e.schedule(e.clock.Now()+d, e.seq, name, fn, nil, false)
}

// AtCallback schedules cb.OnEvent to run at absolute time t. Unlike At, the
// caller allocates nothing per event: the slot comes from the engine's arena
// and cb is a preexisting object.
func (e *Engine) AtCallback(t Cycles, name string, cb Callback) Handle {
	return e.schedule(t, e.seq, name, nil, cb, false)
}

// AfterCallback schedules cb.OnEvent to run d cycles from now.
func (e *Engine) AfterCallback(d Cycles, name string, cb Callback) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled %d cycles in the past", name, d))
	}
	return e.schedule(e.clock.Now()+d, e.seq, name, nil, cb, false)
}

// Cancel marks the event so it will be skipped when popped. Cancelling an
// already-run, already-cancelled, or stale handle is a no-op.
func (e *Engine) Cancel(h Handle) {
	if s := e.slotOf(h); s >= 0 && e.slots[s].queued {
		e.slots[s].cancelled = true
	}
}

// Cancelled reports whether h refers to a still-queued event that has been
// cancelled. Once the event is popped (run or discarded) the handle is stale
// and Cancelled returns false.
func (e *Engine) Cancelled(h Handle) bool {
	s := e.slotOf(h)
	return s >= 0 && e.slots[s].cancelled
}

// runSlot releases en's slot and invokes its body. The slot is released
// before the body runs so the body may freely schedule new events (possibly
// reusing the very same slot); the old handle is stale by then.
func (e *Engine) runSlot(en heapEntry) {
	sl := &e.slots[en.slot]
	fn, cb := sl.fn, sl.cb
	if e.tr != nil {
		e.tr.Instant(e.trTrack, sl.name, int64(en.at))
	}
	e.release(en.slot)
	e.ran++
	if cb != nil {
		cb.OnEvent()
	} else {
		fn()
	}
}

// RunInline dispatches an event that its owner keeps outside the heap, in
// place of the owner scheduling it and the engine popping it. It succeeds
// only when (at, seq) sorts before every queued event (tombstones included),
// at lies within the active RunUntil deadline and the active Run limit has
// dispatches left — exactly when the engine would pop that event next. On
// success it advances the clock to at, counts the dispatch in Ran and emits
// the same trace instant a popped event would; the caller then runs the
// event's body itself. On failure nothing changes and the owner must queue
// the event (AtSeq) instead. The seq must come from ReserveSeqs, so the
// dispatch order is that of the event having been scheduled when the number
// was reserved.
func (e *Engine) RunInline(at Cycles, seq uint64, name string) bool {
	if len(e.heap) > 0 && !entryLess(heapEntry{at: at, seq: seq}, e.heap[0]) {
		return false
	}
	if e.deadlineActive && at > e.deadline {
		return false
	}
	if e.ranLimitActive && e.ran >= e.ranLimit {
		return false
	}
	e.clock.AdvanceTo(at)
	if e.tr != nil {
		e.tr.Instant(e.trTrack, name, int64(at))
	}
	e.ran++
	return true
}

// Step runs the next event, advancing the clock to its timestamp. It
// returns false when the queue is empty. Cancelled events are discarded
// without advancing the clock past them (their timestamp still advances the
// clock, preserving the property that cancellation does not reorder
// subsequent events relative to a run where the event was a no-op). It is
// Run(1): the popped event dispatches nothing further inline.
func (e *Engine) Step() bool { return e.Run(1) > 0 }

// step pops and runs the next live event, discarding cancelled ones on the
// way; it returns false when the queue is empty. The event may dispatch
// further events inline (RunInline) before it returns.
func (e *Engine) step() bool {
	for len(e.heap) > 0 {
		en := e.pop()
		e.clock.AdvanceTo(en.at)
		if e.slots[en.slot].cancelled {
			e.release(en.slot)
			continue
		}
		e.runSlot(en)
		return true
	}
	return false
}

// Run executes events until the queue is empty or limit events have run.
// limit <= 0 means no limit. It returns the number of events executed. Run,
// RunUntil and Ran count every dispatch, inline ones (RunInline) included,
// so an event count means what it would with every event in the heap.
func (e *Engine) Run(limit int) int {
	start := e.ran
	if limit <= 0 {
		for e.step() {
		}
		return int(e.ran - start)
	}
	prevL, prevA := e.ranLimit, e.ranLimitActive
	e.ranLimit, e.ranLimitActive = start+uint64(limit), true
	defer func() { e.ranLimit, e.ranLimitActive = prevL, prevA }()
	for e.ran < e.ranLimit && e.step() {
	}
	return int(e.ran - start)
}

// RunUntil executes events with timestamps <= deadline and returns the
// number executed. Events scheduled beyond the deadline remain queued —
// including events scheduled behind a cancelled head event: discarding a
// cancelled event re-checks the new head against the deadline rather than
// unconditionally running it. The clock is left at the later of its current
// time and the deadline.
func (e *Engine) RunUntil(deadline Cycles) int {
	prevD, prevA := e.deadline, e.deadlineActive
	e.deadline, e.deadlineActive = deadline, true
	defer func() { e.deadline, e.deadlineActive = prevD, prevA }()
	start := e.ran
	for len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			break
		}
		en := e.pop()
		e.clock.AdvanceTo(en.at)
		if e.slots[en.slot].cancelled {
			e.release(en.slot)
			continue
		}
		e.runSlot(en)
	}
	if e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
	return int(e.ran - start)
}
