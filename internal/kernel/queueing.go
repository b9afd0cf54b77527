// Package kernel implements the two operating-system personalities compared
// throughout the paper, plus the queueing-level server models used by the
// tail-latency experiments:
//
//   - Legacy: a conventional kernel. Syscalls are in-thread privilege-mode
//     switches, I/O is interrupt-driven, and software threads are
//     multiplexed onto the few OS-visible hardware threads by a scheduler
//     that pays context-switch costs. A FlexSC-style asynchronous syscall
//     mode is included as the strongest software-only baseline.
//   - Nocs: the paper's kernel. Every kernel service is a dedicated
//     hardware thread blocked in monitor/mwait; syscalls and faults are
//     exception descriptors; I/O threads wake on device queue-tail writes;
//     servers run thread-per-request on hardware threads.
//
// The queueing servers in this file model request service disciplines
// exactly (event-driven, deterministic): FCFS run-to-completion (IX/ZygOS
// style), fluid processor sharing (the hardware RR of §4), and software
// timeslicing with per-switch costs (the legacy preemptive alternative).
// They are validated in the tests against M/M/1 and M/G/1 theory.
package kernel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"nocs/internal/faultinject"
	"nocs/internal/sim"
	"nocs/internal/trace"
	"nocs/internal/workload"
)

// ring is a head-indexed FIFO that recycles its backing array: pop advances
// the head instead of re-slicing capacity away, and push compacts the live
// tail to the front when the array fills, so a steady-state server enqueues
// and dequeues with no allocation. (The old `queue = queue[1:]` idiom leaked
// capacity on every pop and reallocated on every later append.)
type ring[T any] struct {
	buf  []T
	head int
}

func (q *ring[T]) len() int { return len(q.buf) - q.head }

func (q *ring[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// arrival is one queued open-loop arrival: the request plus the engine
// sequence number reserved for it at submission. Its event key is
// (r.Arrival, seq).
type arrival struct {
	seq uint64
	r   workload.Request
}

func compareArrivals(a, b arrival) int {
	if c := cmp.Compare(a.r.Arrival, b.r.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// arrivalSink is the server side of an arrival stream: arrive runs when a
// request's arrival event fires.
type arrivalSink interface {
	arrive(r workload.Request)
}

// arrivals is a queueing server's open-loop arrival stream. Submitted
// requests wait in one queue sorted by (arrival time, reserved seq), and
// only a prefix of it — normally just the head — sits in the engine's heap,
// each entry under the key it would have had if it had been scheduled at
// submission (sim.Engine.ReserveSeqs). When the head fires it arms the next
// entry and then delivers its request, so the dispatch order, Ran and the
// batch horizon match scheduling every arrival up front, while a 40k-request
// batch costs one heap entry instead of 40k.
type arrivals struct {
	eng  *sim.Shard
	name string
	sink arrivalSink
	q    []arrival
	head int
	// armed counts the entries q[head:head+armed] that are in the heap.
	armed int
}

// add queues reqs under consecutive reserved sequence numbers. In-order
// requests (every batch workload.Generate builds, every serve submission)
// are a plain append; an out-of-order one is sorted into place, and armed
// at once if it lands ahead of an entry already in the heap, which keeps
// the armed entries a prefix of the queue.
func (a *arrivals) add(reqs []workload.Request) {
	if len(reqs) == 0 {
		return
	}
	base := a.eng.ReserveSeqs(len(reqs))
	var last arrival
	if a.armed > 0 {
		last = a.q[a.head+a.armed-1]
	}
	start := a.grow(len(reqs))
	for i, r := range reqs {
		a.q = append(a.q, arrival{seq: base + uint64(i), r: r})
	}
	if !slices.IsSortedFunc(a.q[max(a.head, start-1):], compareArrivals) {
		slices.SortFunc(a.q[a.head:], compareArrivals)
	}
	if a.armed == 0 {
		a.arm(a.head)
		return
	}
	for i := a.head; i < len(a.q) && compareArrivals(a.q[i], last) < 0; i++ {
		if a.q[i].seq >= base {
			a.arm(i)
		}
	}
}

// grow makes room for n more entries with at most one allocation, whatever
// n is, and returns the index the first of them will take.
func (a *arrivals) grow(n int) int {
	if cap(a.q)-len(a.q) < n && a.head > 0 {
		live := copy(a.q, a.q[a.head:])
		a.q = a.q[:live]
		a.head = 0
	}
	if cap(a.q)-len(a.q) < n {
		q := make([]arrival, len(a.q), max(2*cap(a.q), len(a.q)+n))
		copy(q, a.q)
		a.q = q
	}
	return len(a.q)
}

func (a *arrivals) arm(i int) {
	a.eng.AtSeq(a.q[i].r.Arrival, a.q[i].seq, a.name, a)
	a.armed++
}

// restore replaces the queue with checkpointed entries (already in key
// order) and arms the head. The engine must be mid-restore.
func (a *arrivals) restore(q []arrival) {
	a.q, a.head, a.armed = q, 0, 0
	if len(q) > 0 {
		a.arm(0)
	}
}

// OnEvent delivers the head arrival (sim.Callback): the head's key is the
// smallest armed one, so it is always the event that fired.
func (a *arrivals) OnEvent() {
	r := a.q[a.head].r
	a.head++
	a.armed--
	if a.head == len(a.q) {
		a.q, a.head = a.q[:0], 0
	} else if a.armed == 0 {
		a.arm(a.head)
	}
	a.sink.arrive(r)
}

// laneSet places request spans onto "req-lane-N" tracks. Requests overlap
// freely inside a queueing server, but spans on one Chrome-trace track must
// nest, so each span goes to the first lane whose previous span has already
// finished (greedy first-fit); a new lane is opened only when every existing
// lane is busy. Spans arrive in completion order, not start order, so the
// lane count can slightly exceed the peak span concurrency — analyses should
// sweep the spans themselves, not count lanes.
type laneSet struct {
	tr      *trace.Tracer
	process string
	lanes   []trace.TrackID
	busy    []int64 // per-lane finish time of the last span placed
}

func (l *laneSet) span(name, arg string, start, finish int64) {
	if l == nil {
		return
	}
	lane := -1
	for i, b := range l.busy {
		if b <= start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(l.lanes)
		l.lanes = append(l.lanes, l.tr.NewTrack(l.process, "req-lane-"+strconv.Itoa(lane)))
		l.busy = append(l.busy, 0)
	}
	l.busy[lane] = finish
	l.tr.CompleteArg(l.lanes[lane], name, arg, start, finish-start)
}

// Completion reports one finished request.
type Completion struct {
	Req    workload.Request
	Finish sim.Cycles
	// Latency is finish - arrival (sojourn time).
	Latency sim.Cycles
}

// QueueServer is a request service discipline running on the event engine.
type QueueServer interface {
	// Submit queues a request's arrival (Req.Arrival must be ≥ now).
	Submit(r workload.Request)
	// SubmitAll queues a batch of arrivals, each as if by Submit in order.
	SubmitAll(reqs []workload.Request)
	// Name identifies the discipline in reports.
	Name() string
}

// FCFSServer is run-to-completion first-come-first-served on K servers —
// the dataplane-OS baseline. Each dispatch pays Overhead cycles (interrupt
// delivery, scheduler, context switch) before service.
type FCFSServer struct {
	eng        *sim.Shard
	K          int
	Overhead   sim.Cycles
	OnComplete func(Completion)
	// Faults injects mid-request thread faults (nil = off). A faulted
	// request runs half its service, writes an exception descriptor, and is
	// requeued with its full demand plus the fault penalty — degraded
	// latency, guaranteed completion. Each request faults at most once, so
	// liveness is deterministic, not probabilistic.
	Faults *faultinject.Injector

	arr         arrivals
	queue       ring[workload.Request]
	busy        int
	done        uint64
	faulted     uint64
	faultedOnce map[int]bool
	lanes       *laneSet
	// donePool recycles completion-event callbacks: at most K are in flight,
	// so the steady state schedules completions with zero allocations.
	donePool []*fcfsDone
}

// fcfsDone is a pooled completion/fault event body: one per busy server.
type fcfsDone struct {
	s     *FCFSServer
	r     workload.Request
	total sim.Cycles // charged service time (halved service for faults)
	pen   sim.Cycles
	fault bool
}

func (s *FCFSServer) getDone() *fcfsDone {
	if n := len(s.donePool); n > 0 {
		d := s.donePool[n-1]
		s.donePool = s.donePool[:n-1]
		return d
	}
	return &fcfsDone{s: s}
}

// NewFCFS builds an FCFS server pool.
func NewFCFS(eng *sim.Shard, k int, overhead sim.Cycles, onComplete func(Completion)) *FCFSServer {
	if k < 1 {
		k = 1
	}
	s := &FCFSServer{eng: eng, K: k, Overhead: overhead, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "fcfs-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *FCFSServer) Name() string { return "legacy-fcfs" }

// EnableTrace records one service span per request (dispatch through
// completion, overhead included) on greedy lanes under process. With K
// servers at most K lanes ever open.
func (s *FCFSServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
	}
}

// Submit queues the arrival on the server's arrival stream.
func (s *FCFSServer) Submit(r workload.Request) { s.arr.add([]workload.Request{r}) }

// SubmitAll queues every arrival with at most one allocation, however many
// there are.
func (s *FCFSServer) SubmitAll(reqs []workload.Request) { s.arr.add(reqs) }

func (s *FCFSServer) arrive(r workload.Request) {
	s.queue.push(r)
	s.dispatch()
}

// Completed returns the number of finished requests.
func (s *FCFSServer) Completed() uint64 { return s.done }

// Faulted returns the number of injected mid-request faults taken.
func (s *FCFSServer) Faulted() uint64 { return s.faulted }

// pollFault decides whether request r faults this dispatch (at most once
// per request ID across requeues).
func (s *FCFSServer) pollFault(r workload.Request) (sim.Cycles, bool) {
	if s.Faults == nil || s.faultedOnce[r.ID] {
		return 0, false
	}
	pen, ok := s.Faults.RequestFault()
	if ok {
		if s.faultedOnce == nil {
			s.faultedOnce = make(map[int]bool)
		}
		s.faultedOnce[r.ID] = true
	}
	return pen, ok
}

func (s *FCFSServer) dispatch() {
	for s.busy < s.K && s.queue.len() > 0 {
		r := s.queue.pop()
		s.busy++
		total := s.Overhead + r.Demand
		d := s.getDone()
		d.r = r
		if pen, ok := s.pollFault(r); ok {
			// The request faults mid-service: the hardware writes an
			// exception descriptor and disables the thread; the kernel's
			// response is to requeue the request (with the descriptor-
			// handling penalty folded into its demand) rather than lose it.
			partial := total / 2
			if partial < 1 {
				partial = 1
			}
			s.faulted++
			d.total, d.pen, d.fault = partial, pen, true
			s.eng.AfterCallback(partial, "fcfs-fault", d)
			continue
		}
		d.total, d.pen, d.fault = total, 0, false
		s.eng.AfterCallback(total, "fcfs-done", d)
	}
}

func (d *fcfsDone) OnEvent() {
	s := d.s
	s.busy--
	if d.fault {
		if s.lanes != nil {
			now := int64(s.eng.Now())
			s.lanes.span("fault", "req"+strconv.Itoa(d.r.ID), now-int64(d.total), now)
		}
		r2 := d.r
		r2.Demand += d.pen
		s.donePool = append(s.donePool, d)
		s.queue.push(r2)
		s.dispatch()
		return
	}
	s.done++
	if s.lanes != nil {
		now := int64(s.eng.Now())
		s.lanes.span("service", "req"+strconv.Itoa(d.r.ID), now-int64(d.total), now)
	}
	comp := Completion{Req: d.r, Finish: s.eng.Now(), Latency: s.eng.Now() - d.r.Arrival}
	s.donePool = append(s.donePool, d)
	if s.OnComplete != nil {
		s.OnComplete(comp)
	}
	s.dispatch()
}

// PSServer is fluid processor sharing with capacity C: with n active
// requests each runs at rate min(1, C/n). This is the discipline the
// paper's hardware RR emulates (§4: "execute runnable hardware threads in a
// fine-grain, round-robin manner, which emulates processor sharing").
// Each request pays Overhead once at arrival — for the nocs personality this
// is the hardware-thread start latency (tens of cycles), not a context
// switch.
type PSServer struct {
	eng        *sim.Shard
	C          int
	Overhead   sim.Cycles
	OnComplete func(Completion)
	// MaxActive caps concurrent in-service requests (0 = unlimited). This
	// models a finite hardware-thread pool: arrivals beyond the cap queue
	// FCFS until a thread frees up (ablation A1).
	MaxActive int
	// Faults injects mid-request thread faults (nil = off). A faulted
	// request reaches half its service, takes an exception descriptor, and
	// restarts on the same hardware thread with full demand plus the fault
	// penalty. At most one fault per request: completion is guaranteed.
	Faults *faultinject.Injector

	arr        arrivals
	active     []*psReq
	pending    ring[workload.Request]
	lastUpdate sim.Cycles
	nextEv     sim.Handle
	nextTarget *psReq
	done       uint64
	faulted    uint64
	// free recycles psReq bodies; finBuf is the reused simultaneous-finisher
	// buffer (replaces a fresh slice + sort.Slice closure per completion).
	free   []*psReq
	finBuf []*psReq

	lanes    *laneSet
	tr       *trace.Tracer
	activeTk trace.TrackID
}

type psReq struct {
	r         workload.Request
	remaining float64
	// faultPen > 0 marks a request that will fault when its (halved)
	// remaining drains; the value is the requeue penalty.
	faultPen sim.Cycles
}

// NewPS builds a processor-sharing server of capacity c.
func NewPS(eng *sim.Shard, c int, overhead sim.Cycles, onComplete func(Completion)) *PSServer {
	if c < 1 {
		c = 1
	}
	s := &PSServer{eng: eng, C: c, Overhead: overhead, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "ps-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *PSServer) Name() string { return "nocs-ps" }

// EnableTrace records one sojourn span per request (arrival through
// completion) on greedy lanes under process, plus an "active" counter. Under
// overload the sojourn spans stack deeper than C — visibly interleaved
// service, where FCFS lanes would cap at K.
func (s *PSServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
		s.tr = tr
		s.activeTk = tr.NewTrack(process, "active")
	}
}

func (s *PSServer) traceActive() {
	s.tr.Count(s.activeTk, "active", int64(s.eng.Now()), int64(len(s.active)))
}

// Completed returns the number of finished requests.
func (s *PSServer) Completed() uint64 { return s.done }

// Faulted returns the number of injected mid-request faults taken.
func (s *PSServer) Faulted() uint64 { return s.faulted }

// Active returns the number of in-service requests.
func (s *PSServer) Active() int { return len(s.active) }

// Submit queues the arrival on the server's arrival stream.
func (s *PSServer) Submit(r workload.Request) { s.arr.add([]workload.Request{r}) }

// SubmitAll queues every arrival with at most one allocation, however many
// there are.
func (s *PSServer) SubmitAll(reqs []workload.Request) { s.arr.add(reqs) }

// arrive is the arrival-event body.
func (s *PSServer) arrive(r workload.Request) {
	s.advance()
	if s.MaxActive > 0 && len(s.active) >= s.MaxActive {
		s.pending.push(r)
		return
	}
	s.admit(r)
	s.traceActive()
	s.reschedule()
}

// getReq pops a recycled request body (reset) or allocates a fresh one.
func (s *PSServer) getReq() *psReq {
	if n := len(s.free); n > 0 {
		a := s.free[n-1]
		s.free = s.free[:n-1]
		*a = psReq{}
		return a
	}
	return &psReq{}
}

func (s *PSServer) admit(r workload.Request) {
	a := s.getReq()
	a.r = r
	a.remaining = float64(s.Overhead + r.Demand)
	if s.Faults != nil {
		if pen, ok := s.Faults.RequestFault(); ok {
			// Fault halfway through service; the requeue happens in OnEvent
			// when the halved remaining drains.
			a.remaining /= 2
			if a.remaining < 1 {
				a.remaining = 1
			}
			a.faultPen = pen
		}
	}
	s.active = append(s.active, a)
}

// rate returns the current per-request service rate.
func (s *PSServer) rate() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	if n <= s.C {
		return 1
	}
	return float64(s.C) / float64(n)
}

// advance drains elapsed virtual work since the last update.
func (s *PSServer) advance() {
	now := s.eng.Now()
	elapsed := float64(now - s.lastUpdate)
	s.lastUpdate = now
	if elapsed <= 0 || len(s.active) == 0 {
		return
	}
	r := s.rate()
	for _, a := range s.active {
		a.remaining -= elapsed * r
	}
}

// reschedule finds the next completion and arms a single event for it.
func (s *PSServer) reschedule() {
	if s.nextEv != sim.NoEvent {
		s.eng.Cancel(s.nextEv)
		s.nextEv = sim.NoEvent
	}
	if len(s.active) == 0 {
		return
	}
	// Smallest remaining completes first; ties break on lower ID for
	// determinism.
	var min *psReq
	for _, a := range s.active {
		if min == nil || a.remaining < min.remaining ||
			(a.remaining == min.remaining && a.r.ID < min.r.ID) {
			min = a
		}
	}
	r := s.rate()
	wait := sim.Cycles(math.Ceil(math.Max(0, min.remaining) / r))
	s.nextTarget = min
	s.nextEv = s.eng.AfterCallback(wait, "ps-done", s)
}

// OnEvent completes the armed next-finisher (sim.Callback: the server is its
// own completion-event body, so the steady state allocates no closures).
func (s *PSServer) OnEvent() {
	target := s.nextTarget
	s.nextEv = sim.NoEvent
	s.nextTarget = nil
	s.advance()
	// Complete everything at or below zero (simultaneous finishers),
	// removing them from the active set in place. Collect first and sort by
	// ID: completion order depends on request identity, never on where a
	// request sits in the active set.
	finished := s.finBuf[:0]
	kept := s.active[:0]
	for _, a := range s.active {
		if a.remaining <= 1e-9 || a == target {
			if a.faultPen > 0 {
				// Mid-request fault: exception descriptor written, thread
				// restarted on the same hardware thread with full demand
				// plus the penalty. The request stays active — degraded,
				// never lost.
				a.remaining = float64(s.Overhead + a.r.Demand + a.faultPen)
				a.faultPen = 0
				s.faulted++
				kept = append(kept, a)
				continue
			}
			finished = append(finished, a)
			continue
		}
		kept = append(kept, a)
	}
	clear(s.active[len(kept):])
	s.active = kept
	s.finBuf = finished
	// Insertion sort by ID (IDs unique, so the order matches what sort.Slice
	// produced) on the reused buffer: no comparator closure, no allocation.
	for i := 1; i < len(finished); i++ {
		a := finished[i]
		j := i - 1
		for j >= 0 && finished[j].r.ID > a.r.ID {
			finished[j+1] = finished[j]
			j--
		}
		finished[j+1] = a
	}
	for _, a := range finished {
		s.done++
		if s.lanes != nil {
			s.lanes.span("sojourn", "req"+strconv.Itoa(a.r.ID),
				int64(a.r.Arrival), int64(s.eng.Now()))
		}
		comp := Completion{Req: a.r, Finish: s.eng.Now(), Latency: s.eng.Now() - a.r.Arrival}
		s.free = append(s.free, a)
		if s.OnComplete != nil {
			s.OnComplete(comp)
		}
	}
	// Admit queued arrivals into freed hardware threads.
	for s.pending.len() > 0 && (s.MaxActive <= 0 || len(s.active) < s.MaxActive) {
		s.admit(s.pending.pop())
	}
	s.traceActive()
	s.reschedule()
}

// TimesliceServer is the legacy preemptive alternative: K servers running a
// software scheduler with a fixed Quantum; every quantum boundary that
// switches between different requests pays SwitchCost (register save/restore
// plus scheduler, §1). As Quantum → 0 it approaches PS but the switch
// overhead dominates; as Quantum → ∞ it degenerates to FCFS.
type TimesliceServer struct {
	eng        *sim.Shard
	K          int
	Quantum    sim.Cycles
	SwitchCost sim.Cycles
	OnComplete func(Completion)

	arr    arrivals
	queue  ring[*tsReq]
	busy   int
	done   uint64
	sswaps uint64
	lanes  *laneSet
	// free recycles tsReq bodies; slicePool recycles slice-event callbacks
	// (at most K in flight), so steady-state timeslicing allocates nothing.
	free      []*tsReq
	slicePool []*tsSlice
}

type tsReq struct {
	r         workload.Request
	remaining sim.Cycles
}

// tsSlice is a pooled quantum-expiry event body: one per busy server.
type tsSlice struct {
	s     *TimesliceServer
	req   *tsReq
	slice sim.Cycles
}

func (s *TimesliceServer) getReq() *tsReq {
	if n := len(s.free); n > 0 {
		req := s.free[n-1]
		s.free = s.free[:n-1]
		return req
	}
	return &tsReq{}
}

func (s *TimesliceServer) getSlice() *tsSlice {
	if n := len(s.slicePool); n > 0 {
		ev := s.slicePool[n-1]
		s.slicePool = s.slicePool[:n-1]
		return ev
	}
	return &tsSlice{s: s}
}

// NewTimeslice builds a preemptive timeslicing server pool.
func NewTimeslice(eng *sim.Shard, k int, quantum, switchCost sim.Cycles, onComplete func(Completion)) *TimesliceServer {
	if k < 1 {
		k = 1
	}
	if quantum < 1 {
		quantum = 1
	}
	s := &TimesliceServer{eng: eng, K: k, Quantum: quantum, SwitchCost: switchCost, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "ts-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *TimesliceServer) Name() string { return "legacy-timeslice" }

// EnableTrace records one span per quantum (switch cost included) on greedy
// lanes under process, exposing the preemption pattern: a long request shows
// as a row of slices with other requests' slices interleaved between them.
func (s *TimesliceServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
	}
}

// Completed returns finished request count; Switches the context switches.
func (s *TimesliceServer) Completed() uint64 { return s.done }

// Switches returns the number of context switches performed.
func (s *TimesliceServer) Switches() uint64 { return s.sswaps }

// Submit queues the arrival on the server's arrival stream.
func (s *TimesliceServer) Submit(r workload.Request) { s.arr.add([]workload.Request{r}) }

// SubmitAll queues every arrival with at most one allocation, however many
// there are.
func (s *TimesliceServer) SubmitAll(reqs []workload.Request) { s.arr.add(reqs) }

func (s *TimesliceServer) arrive(r workload.Request) {
	req := s.getReq()
	req.r = r
	req.remaining = r.Demand
	s.queue.push(req)
	s.dispatch()
}

func (s *TimesliceServer) dispatch() {
	for s.busy < s.K && s.queue.len() > 0 {
		req := s.queue.pop()
		s.busy++
		s.runSlice(req)
	}
}

func (s *TimesliceServer) runSlice(req *tsReq) {
	slice := req.remaining
	if slice > s.Quantum {
		slice = s.Quantum
	}
	// Every dispatch pays the switch (the previous context must be saved
	// and this one restored — in the legacy world this is a software
	// context switch even when resuming the same request after others ran).
	s.sswaps++
	ev := s.getSlice()
	ev.req, ev.slice = req, slice
	s.eng.AfterCallback(s.SwitchCost+slice, "ts-slice", ev)
}

func (e *tsSlice) OnEvent() {
	s := e.s
	req, slice := e.req, e.slice
	e.req = nil
	s.slicePool = append(s.slicePool, e)
	if s.lanes != nil {
		now := int64(s.eng.Now())
		s.lanes.span("slice", "req"+strconv.Itoa(req.r.ID), now-int64(s.SwitchCost+slice), now)
	}
	req.remaining -= slice
	s.busy--
	if req.remaining <= 0 {
		s.done++
		comp := Completion{Req: req.r, Finish: s.eng.Now(), Latency: s.eng.Now() - req.r.Arrival}
		s.free = append(s.free, req)
		if s.OnComplete != nil {
			s.OnComplete(comp)
		}
	} else {
		s.queue.push(req)
	}
	s.dispatch()
}

// RunOpenLoop submits requests to a server and runs the engine to
// completion, returning the completions in finish order. All requests must
// have arrival times at or after the engine's current time.
func RunOpenLoop(eng *sim.Shard, srv QueueServer, reqs []workload.Request) []Completion {
	out := make([]Completion, 0, len(reqs))
	collect := func(c Completion) { out = append(out, c) }
	switch s := srv.(type) {
	case *FCFSServer:
		prev := s.OnComplete
		s.OnComplete = func(c Completion) {
			if prev != nil {
				prev(c)
			}
			collect(c)
		}
	case *PSServer:
		prev := s.OnComplete
		s.OnComplete = func(c Completion) {
			if prev != nil {
				prev(c)
			}
			collect(c)
		}
	case *TimesliceServer:
		prev := s.OnComplete
		s.OnComplete = func(c Completion) {
			if prev != nil {
				prev(c)
			}
			collect(c)
		}
	default:
		panic(fmt.Sprintf("kernel: unknown server type %T", srv))
	}
	srv.SubmitAll(reqs)
	eng.Run(0)
	return out
}
