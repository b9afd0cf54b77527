// Package monitor implements the generalized monitor/mwait engine of §3.1
// and §4 of the paper: hardware that watches writes to arbitrary physical
// addresses — from CPU stores, DMA engines, or interrupt-to-memory
// translations — and wakes hardware threads blocked on them.
//
// Differences from today's x86 monitor/mwait, all demanded by the paper:
//
//   - a thread may watch multiple addresses at once;
//   - watched addresses may be uncacheable (device registers, MMIO);
//   - writes from any source trigger the watch, including DMA
//     ("monitor any write (including DMA) to any address");
//   - usable from any privilege level.
//
// The engine implements the classic monitor/mwait race rule: a write that
// lands between MONITOR and MWAIT must not be lost — MWAIT then completes
// immediately. This "no lost wakeups" property is property-tested.
package monitor

import (
	"strconv"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

// Waiter is a hardware thread (or any component) that can block on watched
// addresses. Wake is called synchronously from the memory write path.
type Waiter interface {
	// MonitorWake delivers a wakeup caused by a write of val to addr.
	MonitorWake(addr, val int64, src mem.WriteSource)
}

// watcher is one waiter's watch state. Watchers live as long as the engine:
// a wake resets a watcher instead of freeing it, so a waiter cycling through
// arm, wait and wake allocates nothing once its slices have grown.
type watcher struct {
	w Waiter
	// watches is the watch set in arm order. A wake truncates it but keeps
	// the backing array, so re-arming the previous cycle's set in the same
	// order finds each address's list in place instead of looking it up.
	watches []watch
	waiting bool // blocked in mwait
	pending bool // a watched write arrived after arm, before (or instead of) wait
	pAddr   int64
	pVal    int64
	pSrc    mem.WriteSource
}

// watch is one armed address and its waiter list.
type watch struct {
	addr int64
	list *addrList
}

// armed reports whether addr is in the watch set. Watch sets are a handful
// of doorbells, so a scan beats hashing.
func (s *watcher) armed(addr int64) bool {
	for _, x := range s.watches {
		if x.addr == addr {
			return true
		}
	}
	return false
}

// addrList holds the watchers armed on one address, in global arm order, so
// that a write waking several waiters delivers the wakeups deterministically
// (map iteration order would make racy multi-waiter programs diverge between
// otherwise identical runs). A list stays in the engine once created, empty
// while nobody watches its address: like the word store, the engine grows
// with the addresses a program touches, and service loops re-arm the same
// doorbells without rebuilding anything.
type addrList struct {
	ids []int32
}

// Engine is the machine-wide monitor filter. It observes every write to
// physical memory and wakes waiters whose armed watch sets match.
//
// DMAVisible=false models today's hardware, where only CPU writes that reach
// the coherence fabric trigger monitor (ablation A2): device writes then
// silently do not wake waiters and the platform must fall back to interrupts.
type Engine struct {
	DMAVisible bool

	// ids gives every waiter the engine has seen a dense index into ws;
	// entries are never removed. lastW/lastID cache the latest lookup, since
	// a service arms its whole watch set for one waiter in a row.
	ids    map[Waiter]int32
	ws     []watcher
	lastW  Waiter
	lastID int32

	// byAddr holds every address's waiter list, in the table that backs
	// Memory's words: the lookup runs on every write in the machine.
	byAddr mem.Table[*addrList]
	// woken is the stack of wake batches being delivered: a wake handler
	// may write memory and start a nested batch above its caller's.
	woken []int32

	// Tracing (nil tr = off). Each delivered wakeup starts a flow on the
	// monitor track and stashes its ID in the tracer; the core's synchronous
	// wake path consumes the stash and terminates the flow on the woken
	// ptid's track, drawing the arm→fire→resume chain in Perfetto.
	tr      *trace.Tracer
	trNow   func() int64
	trTrack trace.TrackID

	// Fault injection (nil inj = off). Deferred deliveries are events on sh,
	// the shard the monitor belongs to — the monitor has no clock or engine
	// of its own, so the machine supplies the shard when it arms a fault
	// plan. Deliveries stay checkpointable (DESIGN.md §13): every in-flight
	// injection is tracked in pending with its handle and a serializable
	// payload.
	inj     *faultinject.Injector
	sh      *sim.Shard
	pending []*pendingInj

	wakeups   uint64
	immediate uint64 // mwait completed without blocking (pending write)
	dropped   uint64 // writes invisible due to DMAVisible=false
	spurious  uint64 // injected spurious wakes actually delivered
	coalesced uint64 // wake batches delivered late by injected coalescing
}

// NewEngine returns a monitor engine with full (paper-semantics) visibility.
func NewEngine() *Engine {
	return &Engine{
		DMAVisible: true,
		ids:        make(map[Waiter]int32),
		byAddr:     mem.NewTable[*addrList](0),
	}
}

var _ mem.WriteObserver = (*Engine)(nil)

// SetTracer attaches a tracer; now supplies the current cycle (the monitor
// engine has no clock of its own) and process names the track group.
func (e *Engine) SetTracer(tr *trace.Tracer, now func() int64, process string) {
	e.tr = tr
	e.trNow = now
	if tr != nil {
		e.trTrack = tr.NewTrack(process, "watches")
	}
}

// SetFaultInjector arms fault injection: spurious wakes after blocking
// waits and coalesced (deferred) wake batches, scheduled on sh.
func (e *Engine) SetFaultInjector(inj *faultinject.Injector, sh *sim.Shard) {
	e.inj = inj
	e.sh = sh
}

// Event names of the monitor's deferred fault deliveries.
const (
	evSpuriousWake  = "fault-spurious-wake"
	evCoalescedWake = "fault-coalesced-wake"
)

// pendingInj is one scheduled-but-undelivered fault injection: a spurious
// wake aimed at one waiter, or a coalesced wake batch. It is the event body
// (sim.Callback), so the delivery path stays closure-free and the payload
// stays serializable for checkpoints.
type pendingInj struct {
	e        *Engine
	h        sim.Handle
	spurious bool
	w        Waiter   // spurious target
	batch    []Waiter // coalesced batch
	addr     int64
	val      int64
	src      mem.WriteSource
}

// OnEvent delivers the deferred injection and unlinks it from the pending
// list.
func (p *pendingInj) OnEvent() {
	p.e.unlink(p)
	if p.spurious {
		p.e.InjectWake(p.w)
		return
	}
	p.e.coalesced++
	for _, w := range p.batch {
		p.e.wakeIfWaiting(p.e.id(w), p.addr, p.val, p.src)
	}
}

func (e *Engine) unlink(p *pendingInj) {
	for i, q := range e.pending {
		if q == p {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
}

// traceFire records one wakeup delivery and stashes its flow for the core's
// wake path to terminate on the ptid track.
func (e *Engine) traceFire(addr int64, src mem.WriteSource, immediate bool) {
	at := e.trNow()
	arg := "0x" + strconv.FormatInt(addr, 16) + " " + src.String()
	if immediate {
		arg += " immediate"
	}
	e.tr.InstantArg(e.trTrack, "fire", arg, at)
	f := e.tr.NewFlow()
	e.tr.FlowStart(e.trTrack, "wake", at, f)
	e.tr.StashFlow(f)
}

// id returns w's watcher index, registering w on first sight.
func (e *Engine) id(w Waiter) int32 {
	if e.lastW != nil && w == e.lastW {
		return e.lastID
	}
	id, ok := e.ids[w]
	if !ok {
		id = int32(len(e.ws))
		e.ids[w] = id
		e.ws = append(e.ws, watcher{w: w})
	}
	e.lastW, e.lastID = w, id
	return id
}

// Arm adds addr to w's watch set (MONITOR). Multiple addresses may be armed
// before a single Wait; any of them triggers the wake.
func (e *Engine) Arm(w Waiter, addr int64) {
	id := e.id(w)
	s := &e.ws[id]
	if s.armed(addr) {
		return
	}
	var l *addrList
	if k := len(s.watches); k < cap(s.watches) && s.watches[:k+1][k].addr == addr {
		l = s.watches[:k+1][k].list
	}
	if l == nil {
		if l = e.byAddr.Get(addr); l == nil {
			l = &addrList{}
			e.byAddr.Set(addr, l)
		}
	}
	l.ids = append(l.ids, id)
	s.watches = append(s.watches, watch{addr, l})
	if e.tr != nil {
		e.tr.InstantArg(e.trTrack, "arm", "0x"+strconv.FormatInt(addr, 16), e.trNow())
	}
}

// remove takes watcher id off the list.
func (l *addrList) remove(id int32) {
	for i, x := range l.ids {
		if x == id {
			l.ids = append(l.ids[:i], l.ids[i+1:]...)
			return
		}
	}
}

// Armed reports how many addresses w currently watches.
func (e *Engine) Armed(w Waiter) int { return len(e.ws[e.id(w)].watches) }

// Wait transitions w into the blocked state (MWAIT). If a watched write
// already arrived since arming, the wait completes immediately: Wait returns
// false and delivers the buffered wake via w.MonitorWake before returning.
// Otherwise it returns true and the waiter stays blocked until a write.
//
// Waiting with no armed addresses returns false immediately (like x86, an
// mwait without a monitor does not block) and delivers nothing.
func (e *Engine) Wait(w Waiter) (blocked bool) {
	id := e.id(w)
	s := &e.ws[id]
	if len(s.watches) == 0 {
		return false
	}
	if s.pending {
		addr, val, src := s.pAddr, s.pVal, s.pSrc
		e.disarm(id)
		e.immediate++
		e.fire(w, addr, val, src, true)
		return false
	}
	s.waiting = true
	if e.inj != nil && e.sh != nil {
		if d, ok := e.inj.SpuriousWake(); ok {
			p := &pendingInj{e: e, spurious: true, w: w}
			p.h = e.sh.AfterCallback(d, evSpuriousWake, p)
			e.pending = append(e.pending, p)
		}
	}
	return true
}

// InjectWake delivers a spurious wakeup to w: the monitor reports a write on
// w's oldest armed address that never happened. Like any wake it consumes
// the watch set, so a correct waiter must re-arm before re-checking — the
// degradation path the kernel service loop exercises. Delivered only if w is
// still blocked; a waiter that was legitimately woken in the meantime is
// left alone (returns false). Plan-driven injection (SetFaultInjector) and
// the differential harness's precomputed fault schedules both land here.
func (e *Engine) InjectWake(w Waiter) bool {
	id := e.id(w)
	s := &e.ws[id]
	if !s.waiting {
		return false
	}
	addr := s.watches[0].addr
	e.disarm(id)
	e.spurious++
	e.fire(w, addr, 0, mem.SrcCPU, false)
	return true
}

// CancelWait removes w from the blocked state without a wake (used when a
// ptid blocked in mwait is stopped/disabled by another thread: the paper
// allows stop on waiting threads).
func (e *Engine) CancelWait(w Waiter) { e.disarm(e.id(w)) }

// disarm clears all watches and flags of watcher id. A wake consumes the
// whole watch set: like x86, the monitor must be re-armed after every wakeup.
func (e *Engine) disarm(id int32) {
	s := &e.ws[id]
	for _, x := range s.watches {
		x.list.remove(id)
	}
	*s = watcher{w: s.w, watches: s.watches[:0]}
}

// fire counts one wakeup and delivers it to w.
func (e *Engine) fire(w Waiter, addr, val int64, src mem.WriteSource, immediate bool) {
	e.wakeups++
	if e.tr != nil {
		e.traceFire(addr, src, immediate)
	}
	w.MonitorWake(addr, val, src)
	e.tr.StashFlow(0) // drop the flow if the waiter didn't consume it
}

// wakeIfWaiting wakes watcher id if it is still blocked: an earlier wake in
// the same batch may have disturbed it.
func (e *Engine) wakeIfWaiting(id int32, addr, val int64, src mem.WriteSource) {
	s := &e.ws[id]
	if !s.waiting {
		return
	}
	w := s.w
	e.disarm(id)
	e.fire(w, addr, val, src, false)
}

// ObserveWrite implements mem.WriteObserver: the engine is attached to
// physical memory and sees every write in the machine.
func (e *Engine) ObserveWrite(addr, val int64, src mem.WriteSource) {
	l := e.byAddr.Get(addr)
	if l == nil || len(l.ids) == 0 {
		return
	}
	if !e.DMAVisible && src != mem.SrcCPU {
		e.dropped++
		if e.tr != nil {
			e.tr.InstantArg(e.trTrack, "dropped",
				"0x"+strconv.FormatInt(addr, 16)+" "+src.String(), e.trNow())
		}
		return
	}
	// Collect first (in arm order, so wake delivery is deterministic): Wake
	// handlers may re-arm, mutating the watch structures.
	start := len(e.woken)
	for _, id := range l.ids {
		s := &e.ws[id]
		if s.waiting {
			e.woken = append(e.woken, id)
		} else {
			s.pending = true
			s.pAddr, s.pVal, s.pSrc = addr, val, src
		}
	}
	end := len(e.woken)
	if end > start && e.inj != nil && e.sh != nil {
		if d, ok := e.inj.CoalesceWake(); ok {
			// Deferred delivery: the monitor batches this notification and
			// releases it late. Waiters woken by another write in the
			// meantime are skipped at delivery — the wake is coalesced with
			// that one, never lost.
			p := &pendingInj{e: e, batch: make([]Waiter, 0, end-start), addr: addr, val: val, src: src}
			for _, id := range e.woken[start:end] {
				p.batch = append(p.batch, e.ws[id].w)
			}
			e.woken = e.woken[:start]
			p.h = e.sh.AfterCallback(d, evCoalescedWake, p)
			e.pending = append(e.pending, p)
			return
		}
	}
	for i := start; i < end; i++ {
		e.wakeIfWaiting(e.woken[i], addr, val, src)
	}
	e.woken = e.woken[:start]
}

// Stats returns (delivered wakeups, immediate-completion waits, writes
// dropped because DMA visibility was disabled).
func (e *Engine) Stats() (wakeups, immediate, dropped uint64) {
	return e.wakeups, e.immediate, e.dropped
}

// InjectedWakes returns (spurious wakes delivered, wake batches delivered
// late by injected coalescing). Both are zero without a fault plan.
func (e *Engine) InjectedWakes() (spurious, coalesced uint64) {
	return e.spurious, e.coalesced
}

// Waiting reports whether w is currently blocked in mwait.
func (e *Engine) Waiting(w Waiter) bool { return e.ws[e.id(w)].waiting }
