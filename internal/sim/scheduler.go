package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the scheduling surface (DESIGN.md §12). The raw *Engine
// remains the per-shard event queue, but drivers hold a *Scheduler: a set of
// shards interleaved by the conservative-lookahead window protocol, run on
// one or more worker goroutines. One worker is the determinism oracle (one
// OS thread, shards interleaved deterministically). Components hold a
// *Shard, which embeds the shard's *Engine (so every scheduling method — At,
// After, AtCallback, Cancel, BatchHorizon, AdvanceWithin, … — works
// unchanged) and adds the one way to affect another shard's state: a
// timestamped Write into its memory.
//
// Determinism argument, in brief. Virtual time advances in windows of
// `lookahead` cycles. Within a window each shard executes only its own
// events over only its own state, so shards commute and may run on any
// worker in any real-time order. A cross-shard write sent at virtual time
// τ carries delay ≥ lookahead, hence arrives at τ+delay ≥ windowStart +
// lookahead — always in a strictly later window — and all in-flight
// writes are delivered at the window barrier in a deterministic total
// order: (arrival time, source shard, per-source sequence). Every worker
// count executes the identical windowed protocol, so for the same inputs
// every shard sees the identical event sequence at any worker count. That
// is the property the shard-sweep determinism tests pin.

// ShardID identifies one shard of a Scheduler. Shard 0 always exists.
type ShardID int32

// Shard is a component's handle onto its home event queue. It embeds the
// shard's *Engine, so the entire pre-existing scheduling API (At, After,
// AtCallback, AfterCallback, Cancel, Cancelled, Now, Clock, NextEventAt,
// BatchHorizon, AdvanceWithin, …) is available on a Shard unchanged and at
// identical cost. What a Shard adds is identity, its memory store
// (SetStore) and the only legal way to affect another shard's state: Write.
type Shard struct {
	*Engine
	id    ShardID
	owner *Scheduler // nil for a solo shard (SoloShard)
	store func(addr, val int64)
	free  FreeList[write] // bodies of the writes queued on this engine
}

// SetStore gives the shard its memory store, which every write addressed to
// the shard runs on this shard's engine at its arrival cycle. It must be set
// before the first such write.
func (s *Shard) SetStore(store func(addr, val int64)) { s.store = store }

// Write stores val at addr in shard `to`'s memory at Now()+delay. For a
// remote shard the delay must be at least the scheduler's lookahead — that
// minimum cross-shard latency is exactly what lets shards run ahead of each
// other without ever reordering a delivery. A write to the shard itself is
// ordinary local scheduling and accepts any non-negative delay.
//
// Cross-shard deliveries are globally ordered by (arrival time, sending
// shard, per-sender sequence), so identical runs produce identical
// interleavings regardless of worker count. A write is a value, not a
// callback, so the scheduler checkpoints every one (SnapshotState).
func (s *Shard) Write(to ShardID, delay Cycles, addr, val int64) {
	w := s.owner
	switch {
	case to == s.id:
		x := s.free.Get()
		*x = write{sh: s, addr: addr, val: val}
		s.Engine.AfterCallback(delay, writeName, x)
		return
	case w == nil:
		panic(fmt.Sprintf("sim: solo shard cannot Write to shard %d", to))
	case int(to) < 0 || int(to) >= len(w.shards):
		panic(fmt.Sprintf("sim: Write to unknown shard %d (have %d)", to, len(w.shards)))
	case delay < w.look:
		panic(fmt.Sprintf("sim: cross-shard write with delay %d below lookahead %d", delay, w.look))
	}
	msg := xmsg{at: s.Engine.Now() + delay, src: s.id, seq: w.sendSeq[s.id], to: to, addr: addr, val: val}
	w.outbox[s.id] = append(w.outbox[s.id], msg)
	w.sendSeq[s.id]++
}

// writeName names every write's event in traces and checkpoint errors.
const writeName = "xwrite"

// write is the event body of a write queued on its target's engine, taken
// from the shard's free list, so a steady-state write allocates nothing.
type write struct {
	sh        *Shard
	addr, val int64
}

func (x *write) OnEvent() {
	sh, addr, val := x.sh, x.addr, x.val
	sh.free.Put(x)
	sh.store(addr, val)
}

// SoloShard wraps a standalone Engine in a single-shard handle so code
// migrated to the Shard API can still be driven by a bare engine (tests,
// out-of-tree harnesses). A Write to another shard panics; a write to the
// shard itself schedules locally.
func SoloShard(eng *Engine) *Shard {
	return &Shard{Engine: eng, id: 0}
}

// xmsg is one cross-shard write in flight. The (at, src, seq) triple
// is a unique, deterministic total order over all of them.
type xmsg struct {
	at        Cycles
	src       ShardID
	seq       uint64
	to        ShardID
	addr, val int64
}

func xmsgCompare(a, b xmsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Scheduler drives a set of event-queue shards over shared virtual time
// with the conservative-lookahead window protocol. Workers only decide how
// a window executes (on the driving goroutine alone, or split over a
// goroutine pool); everything that determines the event order — window
// boundaries, message delivery — is one code path, so output is
// byte-identical at any worker count. With one worker it is the
// determinism oracle, and with one shard it is exactly the classic
// single-threaded engine loop.
type Scheduler struct {
	shards  []*Shard
	look    Cycles
	workers int

	// outbox[s] stages messages sent BY shard s during the current window;
	// it is touched only by the worker running shard s (or the single
	// driving thread outside windows), so no lock is needed. sendSeq[s]
	// numbers shard s's sends for the deterministic delivery order.
	outbox  [][]xmsg
	sendSeq []uint64

	// inflight holds collected, undelivered messages between windows. It is
	// only touched by the driving thread at window barriers.
	inflight []xmsg
	due      []xmsg // delivery scratch, reused across barriers

	// counts[s] is the event count of shard s's last window, written by the
	// worker that ran the shard (disjoint indices) and summed at the
	// barrier.
	counts []int
}

// NewScheduler builds a scheduler of `shards` event queues executed by
// `workers` goroutines per window. Shards and lookahead are clamped to at
// least 1, and workers to [1, shards]; one worker is the serial oracle.
func NewScheduler(shards int, lookahead Cycles, workers int) *Scheduler {
	w := &Scheduler{}
	if shards < 1 {
		shards = 1
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	w.look = lookahead
	w.workers = workers
	w.shards = make([]*Shard, shards)
	w.outbox = make([][]xmsg, shards)
	w.sendSeq = make([]uint64, shards)
	w.counts = make([]int, shards)
	for i := range w.shards {
		w.shards[i] = &Shard{Engine: NewEngine(nil), id: ShardID(i), owner: w}
	}
	return w
}

// Shards returns the shard count (≥ 1).
func (w *Scheduler) Shards() int { return len(w.shards) }

// Workers returns the effective worker count (1 = the serial oracle).
func (w *Scheduler) Workers() int { return w.workers }

// Lookahead is the conservative synchronization horizon: the minimum
// virtual latency of any cross-shard interaction, and therefore how far one
// shard may run ahead of another.
func (w *Scheduler) Lookahead() Cycles { return w.look }

// Shard returns the handle for shard id (nil if out of range); components
// are constructed against the shard that owns their state.
func (w *Scheduler) Shard(id ShardID) *Shard {
	if int(id) < 0 || int(id) >= len(w.shards) {
		return nil
	}
	return w.shards[id]
}

// Now returns the committed global time: the minimum shard clock. With one
// shard this is exactly the engine clock.
func (w *Scheduler) Now() Cycles {
	now := w.shards[0].Engine.Now()
	for _, s := range w.shards[1:] {
		if t := s.Engine.Now(); t < now {
			now = t
		}
	}
	return now
}

// Pending returns queued events across all shards, including in-flight
// cross-shard messages not yet delivered.
func (w *Scheduler) Pending() int {
	n := len(w.inflight)
	for _, s := range w.shards {
		n += s.Engine.Pending()
	}
	for _, ob := range w.outbox {
		n += len(ob)
	}
	return n
}

// Ran returns the number of events executed across all shards.
func (w *Scheduler) Ran() uint64 {
	var n uint64
	for _, s := range w.shards {
		n += s.Engine.Ran()
	}
	return n
}

// collect moves every shard's outbox into the in-flight set. Called at
// window barriers and at run entry (construction-time sends from the
// driving thread are staged in outboxes too).
func (w *Scheduler) collect() {
	for s := range w.outbox {
		if len(w.outbox[s]) == 0 {
			continue
		}
		w.inflight = append(w.inflight, w.outbox[s]...)
		w.outbox[s] = w.outbox[s][:0]
	}
}

// nextTime returns the earliest pending timestamp across all shard queues
// and in-flight messages, or ok=false when everything is drained.
func (w *Scheduler) nextTime() (Cycles, bool) {
	next := Cycles(math.MaxInt64)
	ok := false
	for _, s := range w.shards {
		if t, has := s.Engine.NextEventAt(); has && t < next {
			next, ok = t, true
		}
	}
	for i := range w.inflight {
		if w.inflight[i].at < next {
			next, ok = w.inflight[i].at, true
		}
	}
	return next, ok
}

// deliver schedules every in-flight message with arrival <= winEnd onto its
// target shard, in (arrival, source shard, source sequence) order — the
// deterministic merge that makes delivery independent of worker timing.
func (w *Scheduler) deliver(winEnd Cycles) {
	w.due = w.due[:0]
	kept := w.inflight[:0]
	for _, m := range w.inflight {
		if m.at <= winEnd {
			w.due = append(w.due, m)
		} else {
			kept = append(kept, m)
		}
	}
	w.inflight = kept
	if len(w.due) == 0 {
		return
	}
	slices.SortFunc(w.due, xmsgCompare)
	for _, m := range w.due {
		sh := w.shards[m.to]
		x := sh.free.Get()
		*x = write{sh: sh, addr: m.addr, val: m.val}
		sh.Engine.AtCallback(m.at, writeName, x)
	}
}

// advanceAll leaves every shard clock at (at least) deadline, mirroring
// Engine.RunUntil's clock contract. No shard has an event at or before the
// deadline when this is called.
func (w *Scheduler) advanceAll(deadline Cycles) {
	for _, s := range w.shards {
		if s.Engine.Now() < deadline {
			s.Engine.RunUntil(deadline)
		}
	}
}

// Run drains every shard. A positive limit is only supported with one
// shard, where Run is exactly Engine.Run; a bounded event count has no
// deterministic meaning across concurrently executing shards.
func (w *Scheduler) Run(limit int) int {
	if len(w.shards) == 1 {
		return w.shards[0].Engine.Run(limit)
	}
	if limit > 0 {
		panic("sim: Run(limit>0) is single-shard only; use RunUntil on a sharded scheduler")
	}
	return w.runWindows(0, false)
}

// RunUntil executes all events with timestamps <= deadline on every shard
// and leaves every shard clock at (at least) the deadline.
func (w *Scheduler) RunUntil(deadline Cycles) int {
	if len(w.shards) == 1 {
		return w.shards[0].Engine.RunUntil(deadline)
	}
	return w.runWindows(deadline, true)
}

// runWindows is the windowed main loop, at every worker count.
//
// Each iteration: find the earliest pending timestamp anywhere (shard
// queues AND undelivered messages — a shard must never advance past an
// undelivered cross-shard event, which is what the time-zero regression
// test pins), open the window [next, next+lookahead-1], deliver every
// message due inside it, run all shards to the window end, then collect
// the messages the window produced. Jumping to `next` rather than stepping
// by fixed lookahead keeps sparse queues cheap without changing the event
// order (no event or arrival exists in the skipped gap by construction).
func (w *Scheduler) runWindows(deadline Cycles, bounded bool) int {
	w.collect()
	total := 0
	var pool *workerPool
	if w.workers > 1 {
		pool = w.startPool()
		defer pool.stop()
	}
	for {
		next, ok := w.nextTime()
		if !ok {
			if bounded {
				w.advanceAll(deadline)
			}
			return total
		}
		if bounded && next > deadline {
			w.advanceAll(deadline)
			return total
		}
		winEnd := next + w.look - 1
		if bounded && winEnd > deadline {
			winEnd = deadline
		}
		w.deliver(winEnd)
		if pool != nil {
			total += pool.run(winEnd)
		} else {
			for _, s := range w.shards {
				total += s.Engine.RunUntil(winEnd)
			}
		}
		w.collect()
	}
}

// workerPool executes one window across a fixed worker set. Shards are
// statically partitioned (contiguous ranges), so each shard's state —
// including its outbox and count slot — is touched by exactly one
// goroutine. The driving goroutine runs the first range itself and pool
// goroutines run the others. Windows last tens of microseconds in the
// serving cells, less than parking and waking a goroutine costs, so each
// side of the handoff spins (yielding the processor) for up to spinFor
// before it parks. The start and done counters are the happens-before
// edges that publish queue state to the pool and results back to the
// barrier.
type workerPool struct {
	w      *Scheduler
	ranges [][2]int // shard range per goroutine; ranges[0] is the driver's
	winEnd Cycles   // the window being run, published by start

	start  atomic.Uint64 // windows started
	done   atomic.Int64  // pool goroutines finished with the current window
	quit   atomic.Bool
	parked atomic.Int32 // goroutines parked in await
	mu     sync.Mutex
	cond   sync.Cond
	exited sync.WaitGroup
}

// spinFor bounds a handoff's spin: longer than a typical window, short
// enough that an idle pool parks instead of burning its CPUs.
const spinFor = 100 * time.Microsecond

func (w *Scheduler) startPool() *workerPool {
	nw := w.workers
	p := &workerPool{w: w}
	p.cond.L = &p.mu
	for i := 0; i < nw; i++ {
		p.ranges = append(p.ranges, [2]int{i * len(w.shards) / nw, (i + 1) * len(w.shards) / nw})
	}
	p.exited.Add(nw - 1)
	for _, r := range p.ranges[1:] {
		go p.work(r[0], r[1])
	}
	return p
}

// work runs one pool goroutine's shard range for every window until stop.
func (p *workerPool) work(lo, hi int) {
	defer p.exited.Done()
	for seen := uint64(0); ; seen++ {
		p.await(func() bool { return p.start.Load() > seen || p.quit.Load() })
		if p.quit.Load() {
			return
		}
		p.w.runRange(lo, hi, p.winEnd)
		p.done.Add(1)
		p.wake()
	}
}

// runRange runs shards [lo, hi) to winEnd, recording each one's event count.
func (w *Scheduler) runRange(lo, hi int, winEnd Cycles) {
	for s := lo; s < hi; s++ {
		w.counts[s] = w.shards[s].Engine.RunUntil(winEnd)
	}
}

func (p *workerPool) run(winEnd Cycles) int {
	p.winEnd = winEnd
	p.done.Store(0)
	p.start.Add(1)
	p.wake()
	p.w.runRange(p.ranges[0][0], p.ranges[0][1], winEnd)
	others := int64(len(p.ranges) - 1)
	p.await(func() bool { return p.done.Load() == others })
	total := 0
	for _, c := range p.w.counts {
		total += c
	}
	return total
}

// stop ends the pool goroutines and returns once they have exited.
func (p *workerPool) stop() {
	p.quit.Store(true)
	p.wake()
	p.exited.Wait()
}

// await returns once ready reports true: it spins for up to spinFor, then
// parks until a wake.
func (p *workerPool) await(ready func() bool) {
	deadline := time.Now().Add(spinFor)
	for !ready() {
		if time.Now().After(deadline) {
			p.mu.Lock()
			p.parked.Add(1)
			for !ready() {
				p.cond.Wait()
			}
			p.parked.Add(-1)
			p.mu.Unlock()
			return
		}
		runtime.Gosched()
	}
}

// wake unparks every goroutine parked in await; callers change the state
// await checks first. A goroutine about to park counts itself in parked
// before its last check, so either wake sees it or it sees the change.
func (p *workerPool) wake() {
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}
